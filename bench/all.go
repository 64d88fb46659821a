package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// exactCounts are the per-layer metrics that are counts of work done, not
// timings: two runs of the same code must agree on them bit for bit.
var exactCounts = []string{
	"datasets.pos", "datasets.neg", "datasets.kb_clauses",
	"solve.inferences", "bottom.literals",
	"search.nodes_generated", "search.coverage_batches",
	"covering.searches", "covering.rules", "covering.adopted_facts",
	"core.epochs", "core.rules_learned", "core.adopted_facts", "core.generated_rules", "core.stale_dropped",
	"cluster.virtual_makespan_s", "cluster.virtual_speedup", "cluster.events",
	"wire.bytes_total", "wire.msgs_total", "wire.bytes_k00", "wire.bytes_k02", "wire.bytes_k03", "wire.bytes_k04", "wire.bytes_k05",
	"netcluster.link_flaps", "parcov.msgs", "serve.snapshot_bytes", "serve.response_bytes", "serve.requests_failed",
}

// child runs one workload in a child process — so its peak RSS and CPU are
// its own, the process-global symbol table starts clean and one workload
// cannot warm another — echoes its report and returns the parsed JSON line.
func child(o options, workload string, seed int64, trace bool) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("bench: %w", err)
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds), "--trace", t,
		"--out", o.outDir, "--reps", fmt.Sprint(o.reps),
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	if o.updateGolden {
		args = append(args, "--update-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, fmt.Errorf("bench: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return res, fmt.Errorf("bench: start %s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	io.Copy(io.Discard, out)
	runErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if last != "" {
			fmt.Println(last)
		}
		return res, fmt.Errorf("bench: %s ended without a result line (%v)", workload, runErr)
	}
	if !res.Correct {
		return res, fmt.Errorf("bench: %s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return res, nil
}

// benchSet is one complete pass over the benchmark: per workload, the
// end-to-end metrics of `runs` untraced runs and the per-layer metrics of
// one traced run.
type benchSet struct {
	E2E   map[string]map[string][]float64 `json:"end_to_end"` // workload → metric → one value per run
	Layer map[string]map[string]float64   `json:"per_layer"`  // workload → metric → value
}

// runSets measures n sets. The sets' runs alternate (A1 B1 A2 B2 ...) per
// workload, so whatever the machine does over the minutes a workload takes
// — and on a shared box that is a lot — it does to every set alike. Set s
// uses the seeds o.seed + s·runs ... + runs − 1.
func runSets(o options, runs, n int) ([]*benchSet, error) {
	sets := make([]*benchSet, n)
	for s := range sets {
		sets[s] = &benchSet{E2E: map[string]map[string][]float64{}, Layer: map[string]map[string]float64{}}
	}
	for _, w := range workloads {
		for _, set := range sets {
			set.E2E[w.Name] = map[string][]float64{}
			set.Layer[w.Name] = map[string]float64{}
		}
		for i := 0; i < runs; i++ {
			for s, set := range sets {
				res, err := child(o, w.Name, o.seed+int64(s*runs+i), false)
				if err != nil {
					return nil, err
				}
				for name, v := range res.Metrics {
					set.E2E[w.Name][name] = append(set.E2E[w.Name][name], v.Value)
				}
			}
		}
		for s, set := range sets {
			res, err := child(o, w.Name, o.seed+int64(s*runs), true)
			if err != nil {
				return nil, err
			}
			for name, v := range res.Metrics {
				set.Layer[w.Name][name] = v.Value
			}
		}
	}
	return sets, nil
}

func machineLine() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s %s/%s, kernel %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel)
}

// printSet prints every metric by name with its unit, one column per workload.
func printSet(set *benchSet, runs int) {
	fmt.Printf("\n== end to end (median of %d run(s); spread = interquartile distance / median) ==\n", runs)
	fmt.Printf("%-34s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %22s", w.Name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-34s %-6s", d.Name, d.Unit)
		for _, w := range workloads {
			xs := set.E2E[w.Name][d.Name]
			cell := fmt.Sprintf("%.5g", median(xs))
			if len(xs) > 1 {
				cell += fmt.Sprintf(" ±%.1f%%", 100*spreadShare(xs))
			}
			fmt.Printf(" %22s", cell)
		}
		fmt.Println()
	}
	fmt.Printf("\n== per layer (one traced run; 0 = the layer does no work on that workload) ==\n")
	fmt.Printf("%-34s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %22s", w.Name)
	}
	fmt.Println()
	for _, d := range perLayer {
		fmt.Printf("%-34s %-6s", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Printf(" %22.6g", set.Layer[w.Name][d.Name])
		}
		fmt.Println()
	}
}

// aaRow is one end-to-end metric on one workload, measured twice.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        float64 `json:"median_a"`
	B        float64 `json:"median_b"`
	Worse    float64 `json:"b_worse_by"` // share of A by which B is worse (negative: better)
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Pass     bool    `json:"pass"`
	// Tenth is the same comparison at the bound the issue asked for
	// (issueBound): "pass", "unresolved" when the medians agree within it
	// but a set's own spread is wider, so the agreement shows nothing, or
	// "fail".
	Tenth string `json:"at_a_tenth"`
}

// issueBound is the regression bound ISSUE 11 set for every timing and for
// peak RSS. The bounds in spec.go are wider where this box's run-to-run
// spread would otherwise have the acceptance driver refuse the benchmark
// (README, "Noise"); -aa reports against both.
const issueBound = 0.10

// compareSets holds the second set against the first the way the acceptance
// driver does: B's median may not be worse than A's by more than the bound,
// and each set's own spread (except setup_s's) must stay within it.
func compareSets(a, b *benchSet) (rows []aaRow, mismatched []string) {
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.E2E[w.Name][d.Name], b.E2E[w.Name][d.Name]
			ma, mb := median(xa), median(xb)
			row := aaRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, A: ma, B: mb,
				SpreadA: spreadShare(xa), SpreadB: spreadShare(xb)}
			if ma != 0 {
				row.Worse = (mb - ma) / math.Abs(ma)
				if d.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			row.Pass = row.Worse <= d.Bound
			if d.Name != "setup_s" {
				row.Pass = row.Pass && row.SpreadA <= d.Bound && row.SpreadB <= d.Bound
			}
			tenth := min(d.Bound, issueBound)
			switch {
			case row.Worse > tenth:
				row.Tenth = "fail"
			case row.SpreadA > tenth || row.SpreadB > tenth:
				row.Tenth = "unresolved"
			default:
				row.Tenth = "pass"
			}
			rows = append(rows, row)
		}
		for _, name := range exactCounts {
			if va, vb := a.Layer[w.Name][name], b.Layer[w.Name][name]; va != vb {
				mismatched = append(mismatched, fmt.Sprintf("%s %s: %v vs %v", w.Name, name, va, vb))
			}
		}
	}
	return rows, mismatched
}

// runAll is the benchmark without -workload: every workload in a child
// process, untraced then traced, every metric printed; with aa, twice.
func runAll(o options, aa bool, runs int) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Println("machine:", machineLine())
	n := 1
	if aa {
		n = 2
	}
	sets, err := runSets(o, runs, n)
	if err != nil {
		return err
	}
	for _, set := range sets {
		printSet(set, runs)
	}
	if !aa {
		return nil
	}
	a, b := sets[0], sets[1]
	rows, mismatched := compareSets(a, b)
	fmt.Printf("\n== A/A: two sets of %d run(s) of the same code, alternating ==\n", runs)
	fmt.Printf("%-16s %-16s %12s %12s %9s %8s %8s %6s %-5s %s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "", "at a tenth")
	ok := true
	for _, r := range rows {
		verdict := "pass"
		if !r.Pass {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%-16s %-16s %12.5g %12.5g %+8.1f%% %7.1f%% %7.1f%% %5.1f%% %-5s %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, verdict, r.Tenth)
	}
	for _, m := range mismatched {
		fmt.Println("exact count differs:", m)
		ok = false
	}
	body, err := json.MarshalIndent(map[string]any{
		"machine": machineLine(), "runs_per_set": runs, "seconds_per_run": o.seconds,
		"rows": rows, "exact_count_mismatches": mismatched, "set_a": a, "set_b": b,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode aa.json: %w", err)
	}
	path := filepath.Join(o.outDir, "aa.json")
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Println("wrote", path)
	if !ok {
		return fmt.Errorf("bench: A/A check failed")
	}
	return nil
}
