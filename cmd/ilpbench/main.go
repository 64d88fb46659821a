// Command ilpbench regenerates the paper's evaluation: Tables 1–6 of
// "A pipelined data-parallel algorithm for ILP" (CLUSTER 2005), plus the
// design-choice Ablations A–E (DESIGN.md §4).
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		jsonOut  = flag.String("json", "", "also write the run's machine-readable per-dataset summary (fold means of the Table 2-6 quantities) to this file, or '-' for stdout")
		quiet    = flag.Bool("q", false, "suppress per-fold progress output")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModeFlags(set, *ablation); err != nil {
		fail(err)
	}

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

	procs, err := parseProcs(*procsArg)
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

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	if *ablation != "" {
		if err := runAblation(os.Stdout, *ablation, dss, *scale, *folds, *seed, progress); err != nil {
			fail(err)
		}
		return
	}

	if !*all && (*table < 1 || *table > 6) {
		fail(fmt.Errorf("pick -table 1..6, -all, or -ablation"))
	}

	cfg := harness.Config{
		Datasets: dss,
		Procs:    procs,
		Widths:   widths,
		Folds:    *folds,
		Seed:     *seed,
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

// ablationReaders names, for every flag that not every run reads, the
// ablations that read it; the tables (-table, -all) read every flag. The
// noise and balance ablations build their own tasks, so they read no
// -dataset.
var ablationReaders = map[string][]string{
	"table":   nil,
	"all":     nil,
	"procs":   nil,
	"widths":  nil,
	"json":    nil,
	"shape":   nil,
	"chart":   nil,
	"dataset": {"width", "parcov", "repartition"},
}

// checkModeFlags refuses the flags in set (the names given on the command
// line) that the selected ablation never reads, naming them and it: such a
// flag would be silently inert — a -json file an ablation never writes, a
// -dataset the noise task never looks at.
func checkModeFlags(set []string, ablation string) error {
	var unread []string
	for _, name := range set {
		if readers, ok := ablationReaders[name]; ok && ablation != "" && !slices.Contains(readers, ablation) {
			unread = append(unread, "-"+name)
		}
	}
	if len(unread) > 0 {
		return fmt.Errorf("%s: not read by -ablation %s", strings.Join(unread, ", "), ablation)
	}
	return nil
}

// runAblation learns the named ablation and renders it to w: one table per
// dataset for width, parcov and repartition, one table for noise and
// balance, which build their own tasks at the given scale.
func runAblation(w io.Writer, name string, dss []*datasets.Dataset, scale float64, folds int, seed int64, progress io.Writer) error {
	cost := harness.DefaultCost()
	render := func(ab *harness.Ablation, err error) error {
		if err == nil {
			ab.Render(w)
		}
		return err
	}
	var perDataset func(*datasets.Dataset) (*harness.Ablation, error)
	switch name {
	case "width":
		perDataset = func(ds *datasets.Dataset) (*harness.Ablation, error) {
			return harness.RunWidthAblation(ds, 8, nil, folds, seed, cost, progress)
		}
	case "parcov":
		perDataset = func(ds *datasets.Dataset) (*harness.Ablation, error) {
			return harness.RunParcovAblation(ds, nil, folds, seed, cost, progress)
		}
	case "repartition":
		perDataset = func(ds *datasets.Dataset) (*harness.Ablation, error) {
			return harness.RunRepartitionAblation(ds, 8, folds, seed, cost, progress)
		}
	case "noise":
		ds, err := datasets.ByNameScaled("pyrimidines", scale, seed)
		if err != nil {
			return err
		}
		return render(harness.RunNoiseAblation(len(ds.Pos), len(ds.Neg), 4, folds, nil, seed, progress))
	case "balance":
		return render(harness.RunBalanceAblation(max(int(200*scale), 32), 4, folds, 0.25, seed, cost, progress))
	default:
		return fmt.Errorf("unknown ablation %q (have width, parcov, repartition, noise, balance)", name)
	}
	for _, ds := range dss {
		if err := render(perDataset(ds)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// parseList reads a comma-separated list flag, parsing each entry with
// parse. It refuses a value listed twice: both runs of that cell would be
// filed under one harness.Key.
func parseList(flag, s string, parse func(string) (int, error)) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		if seen[v] {
			return nil, fmt.Errorf("%s: %q repeats an earlier entry", flag, part)
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty list %q", flag, s)
	}
	return out, nil
}

// parseProcs reads -procs: processor counts, each at least 1.
func parseProcs(s string) ([]int, error) {
	return parseList("-procs", s, func(part string) (int, error) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return 0, fmt.Errorf("bad integer %q", part)
		}
		if v < 1 {
			return 0, fmt.Errorf("-procs %d: a run needs at least 1 processor", v)
		}
		return v, nil
	})
}

// parseWidths reads -widths: 'nolimit' (or 0) and positive widths.
func parseWidths(s string) ([]int, error) {
	return parseList("-widths", s, func(part string) (int, error) {
		if part == "nolimit" {
			return harness.WidthUnlimited, nil
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad width %q", part)
		}
		return v, nil
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ilpbench:", err)
	os.Exit(1)
}
