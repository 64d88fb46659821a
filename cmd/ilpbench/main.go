// Command ilpbench regenerates the paper's evaluation: Tables 1–6 of
// "A pipelined data-parallel algorithm for ILP" (CLUSTER 2005), plus two
// ablations (pipeline-width sweep; comparison against the related-work
// parallel-coverage-testing baseline).
//
// Examples:
//
//	ilpbench -all                       # every table at the default scale
//	ilpbench -table 2 -scale 1 -folds 5 # paper-sized speedup table
//	ilpbench -ablation width            # Ablation A
//	ilpbench -ablation parcov           # Ablation B
//	ilpbench -all -shape                # tables plus qualitative checks
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/datasets"
	"repro/internal/harness"
)

func main() {
	var (
		table    = flag.Int("table", 0, "paper table to regenerate (1-6); 0 with -all for everything")
		all      = flag.Bool("all", false, "regenerate all tables")
		ablation = flag.String("ablation", "", "run an ablation instead: width, parcov, repartition, noise or balance")
		scale    = flag.Float64("scale", 0.25, "dataset scale factor (1.0 = paper sizes of Table 1)")
		folds    = flag.Int("folds", 5, "cross-validation folds (paper: 5)")
		seed     = flag.Int64("seed", 1, "master seed")
		procsArg = flag.String("procs", "2,4,8", "comma-separated processor counts")
		widthArg = flag.String("widths", "nolimit,10", "comma-separated pipeline widths ('nolimit' or integers)")
		only     = flag.String("dataset", "", "restrict to one dataset (carcinogenesis, mesh, pyrimidines)")
		shape    = flag.Bool("shape", false, "print the qualitative shape checks after the tables")
		chart    = flag.Bool("chart", false, "draw a text speedup-vs-processors chart after the tables")
		coverPar = flag.Int("coverpar", 0, "shard coverage tests across N goroutines per learner (-1 = all cores, 0/1 = serial); results are identical, wall-clock drops")
		noVM     = flag.Bool("novm", false, "resolve clauses with the tree-walking interpreter instead of the compiled bytecode VM (A/B baseline; results are identical)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		jsonOut  = flag.String("json", "", "also write the run's machine-readable per-dataset summary (fold means of the Table 2-6 quantities) to this file, or '-' for stdout")
		quiet    = flag.Bool("q", false, "suppress per-fold progress output")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Written on normal completion only; an early fail() exits without a
		// heap snapshot.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	procs, err := parseInts(*procsArg)
	if err != nil {
		fail(err)
	}
	widths, err := parseWidths(*widthArg)
	if err != nil {
		fail(err)
	}

	dss, err := datasets.PaperScaled(*scale, *seed)
	if err != nil {
		fail(err)
	}
	if *noVM {
		// Applied at the dataset level so the ablations inherit it too.
		for _, ds := range dss {
			ds.Search.NoVM = true
		}
	}
	if *only != "" {
		var filtered []*datasets.Dataset
		for _, ds := range dss {
			if ds.Name == *only {
				filtered = append(filtered, ds)
			}
		}
		if len(filtered) == 0 {
			fail(fmt.Errorf("unknown dataset %q", *only))
		}
		dss = filtered
	}

	switch *ablation {
	case "":
	case "width":
		runWidthAblation(dss, *folds, *seed, *quiet)
		return
	case "parcov":
		runParcovAblation(dss, *folds, *seed, *quiet)
		return
	case "repartition":
		runRepartitionAblation(dss, *folds, *seed, *quiet)
		return
	case "noise":
		runNoiseAblation(*scale, *folds, *seed, *quiet)
		return
	case "balance":
		runBalanceAblation(*scale, *folds, *seed, *quiet)
		return
	default:
		fail(fmt.Errorf("unknown ablation %q (have width, parcov, repartition, noise, balance)", *ablation))
	}

	if !*all && (*table < 1 || *table > 6) {
		fail(fmt.Errorf("pick -table 1..6, -all, or -ablation"))
	}

	cfg := harness.Config{
		Datasets:         dss,
		Procs:            procs,
		Widths:           widths,
		Folds:            *folds,
		Seed:             *seed,
		CoverParallelism: *coverPar,
	}
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	fmt.Fprintf(os.Stderr, "ilpbench: scale %.2f, %d folds, procs %v, widths %v\n", *scale, *folds, procs, widths)
	res, err := harness.Run(cfg, progress)
	if err != nil {
		fail(err)
	}
	if *all {
		res.RenderAll(os.Stdout)
	} else if err := res.RenderTable(*table, os.Stdout); err != nil {
		fail(err)
	}
	if *jsonOut != "" {
		out, err := res.MarshalSummary(*scale)
		if err != nil {
			fail(err)
		}
		out = append(out, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			fail(err)
		}
	}
	if *chart {
		fmt.Println()
		res.RenderSpeedupChart(os.Stdout)
	}
	if *shape {
		fmt.Println()
		fmt.Println("Shape checks (paper's qualitative findings):")
		for _, c := range res.ShapeChecks() {
			fmt.Println("  " + c)
		}
	}
}

func runWidthAblation(dss []*datasets.Dataset, folds int, seed int64, quiet bool) {
	progress := os.Stderr
	if quiet {
		progress = nil
	}
	for _, ds := range dss {
		ab, err := harness.RunWidthAblation(ds, 8, nil, folds, seed, harness.DefaultCost(), progress)
		if err != nil {
			fail(err)
		}
		ab.Render(os.Stdout)
		fmt.Println()
	}
}

func runRepartitionAblation(dss []*datasets.Dataset, folds int, seed int64, quiet bool) {
	progress := os.Stderr
	if quiet {
		progress = nil
	}
	for _, ds := range dss {
		ab, err := harness.RunRepartitionAblation(ds, 8, folds, seed, harness.DefaultCost(), progress)
		if err != nil {
			fail(err)
		}
		ab.Render(os.Stdout)
		fmt.Println()
	}
}

func runNoiseAblation(scale float64, folds int, seed int64, quiet bool) {
	progress := os.Stderr
	if quiet {
		progress = nil
	}
	ds, err := datasets.ByNameScaled("pyrimidines", scale, seed)
	if err != nil {
		fail(err)
	}
	ab, err := harness.RunNoiseAblation(len(ds.Pos), len(ds.Neg), 4, folds, nil, seed, progress)
	if err != nil {
		fail(err)
	}
	ab.Render(os.Stdout)
}

func runBalanceAblation(scale float64, folds int, seed int64, quiet bool) {
	progress := os.Stderr
	if quiet {
		progress = nil
	}
	n := int(200 * scale)
	if n < 32 {
		n = 32
	}
	ab, err := harness.RunBalanceAblation(n, 4, folds, 0.25, seed, harness.DefaultCost(), progress)
	if err != nil {
		fail(err)
	}
	ab.Render(os.Stdout)
}

func runParcovAblation(dss []*datasets.Dataset, folds int, seed int64, quiet bool) {
	progress := os.Stderr
	if quiet {
		progress = nil
	}
	for _, ds := range dss {
		ab, err := harness.RunParcovAblation(ds, nil, folds, seed, harness.DefaultCost(), progress)
		if err != nil {
			fail(err)
		}
		ab.Render(os.Stdout)
		fmt.Println()
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func parseWidths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "":
		case part == "nolimit" || part == "0":
			out = append(out, harness.WidthUnlimited)
		default:
			v, err := strconv.Atoi(part)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad width %q", part)
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty widths %q", s)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ilpbench:", err)
	os.Exit(1)
}
