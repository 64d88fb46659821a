// Command bench is the repository's benchmark: four workloads, each run
// end to end (tracing off) and layer by layer (one traced repetition plus
// probes that time calls into each package's exported functions). It
// measures the program from outside — no package under internal/ is changed
// to be measured — and checks every output it times.
//
//	bash bench/run.sh                        all workloads, every metric
//	bash bench/run.sh -aa                    the same twice, compared against the bounds
//	bash bench/run.sh --workload seq-pyrim --seed 1 --seconds 20 --trace 0
//
// The last form is what the acceptance driver runs; it ends with one JSON
// line. See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	smoke        bool
	reps         int
	outDir       string
	updateGolden bool
	// sharedProcess says other workloads have run in this process (the
	// in-process smoke test): the symbol table is no longer a fresh
	// process's, and wire byte counts — symbol indices travel as varints —
	// are not comparable with the goldens'.
	sharedProcess bool
}

func (o options) size() size {
	if o.smoke {
		return sizeSmoke
	}
	return sizeFull
}

// duration is a share of the run's measuring time.
func (o options) duration(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// times is n, or 1 in smoke mode: how often set-up and the traced
// repetition are repeated for a median.
func (o options) times(n int) int {
	if o.smoke {
		return 1
	}
	return n
}

// moreReps decides whether repetition i (0-based) should run: a fixed count
// with -reps, otherwise at least three and then until the time is up.
func (o options) moreReps(i int, deadline time.Time) bool {
	if o.reps > 0 {
		return i < o.reps
	}
	return i < 3 || time.Now().Before(deadline)
}

func (o options) tracePath() string {
	return filepath.Join(o.outDir, "trace-"+o.workload+".json")
}

// report is one run's result: the metric values, the operations attempted
// and failed, and the human-readable lines printed above the JSON line.
type report struct {
	ms        *metricSet
	notes     map[string]string
	lines     []string
	attempted int
	failed    int
	failures  []string
}

func newReport(o options) *report {
	// Both sets are filled in a traced run (the end-to-end values are the
	// baseline the overhead is taken against); only one is printed.
	return &report{ms: newMetricSet(append(append([]metricDef(nil), endToEnd...), perLayer...)), notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.ms.set(name, v) }

// timing records the median of a sample and notes its size and quartiles.
func (r *report) timing(name string, xs []float64) {
	r.ms.set(name, median(xs))
	q1, q3 := pyQuartiles(xs)
	r.notes[name] = fmt.Sprintf("n=%d min=%.6g q1=%.6g q3=%.6g", len(xs), sortedCopy(xs)[0], q1, q3)
}

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

func (r *report) info(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// op counts one checked operation; a non-nil error is a failed one.
func (r *report) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// ops adds a batch of operations counted elsewhere (the load generator).
func (r *report) ops(attempted, failed int, firstFailure string) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && len(r.failures) < 10 {
		r.failures = append(r.failures, firstFailure)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result(trace bool) (resultLine, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.ms.get(d.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("bench: metric %s is not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// print writes the human-readable block and then the JSON line.
func (r *report) print(o options) error {
	res, err := r.result(o.trace)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  size %s  trace %v  GOMAXPROCS %d  nproc %d  %s %s/%s\n",
		o.workload, o.seed, o.size(), o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	defs := endToEnd
	if o.trace {
		// A traced run also shows the untraced baseline it measured.
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %-6s %s\n", d.Name, r.ms.get(d.Name), d.Unit, r.notes[d.Name])
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*report, error) {
	switch o.workload {
	case wlSeq:
		return runLearn(o, seqWorkload())
	case wlSim:
		return runLearn(o, simWorkload(o))
	case wlTCP:
		return runLearn(o, tcpWorkload(o))
	case wlServe:
		return runServe(o)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
}

func main() {
	var o options
	var trace int
	var aa bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process and end with the JSON result line; empty runs all four, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "seed for everything the benchmark draws: probe samples, query order")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced repetition and layer probes")
	flag.IntVar(&o.reps, "reps", 0, "fixed number of timed repetitions per learn workload (0: as many as fit in -seconds, at least 3)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny datasets, one repetition, sub-second phases: exercises every code path, times nothing worth reading")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace-<workload>.json and aa.json")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden.json from this run instead of checking against it")
	flag.BoolVar(&aa, "aa", false, "run the whole benchmark twice and compare the two sets of medians against each metric's bound")
	flag.IntVar(&runs, "runs", 1, "without -workload: untraced runs per workload and set, each with its own seed (the acceptance check uses 10)")
	flag.Parse()
	o.trace = trace != 0
	if o.smoke {
		o.reps = 1
	}

	// The box has two cores; pin to that so a run on a bigger machine is
	// comparable and the recorded value says what was used.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if o.workload == "" {
		if err := runAll(o, aa, runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	stolen, began := stolenTicks(), time.Now()
	r, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Clock ticks are 10 ms on Linux.
	r.info("hypervisor steal during the run: %.1f%% of one processor", float64(stolenTicks()-stolen)/time.Since(began).Seconds())
	if err := r.print(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}
