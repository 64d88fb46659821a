package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/covering"
	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/solve"
	"repro/internal/xval"
)

// size names the two scales every workload exists at: the measured one and
// the tiny one the smoke test runs in-process.
type size string

const (
	sizeFull  size = "full"
	sizeSmoke size = "smoke"
)

// taskSpec fixes one learning task: which generator, how many examples.
// Example counts are the paper's Table 1 sizes times scale.
type taskSpec struct {
	dataset string
	scale   float64
}

// dataSeed is the generator seed of every dataset. It is pinned because the
// datasets stand in for the paper's fixed files: one redraw of the same
// generator moves learn time by up to 3×, which would bury the 10 % this
// benchmark has to resolve. The run's -seed instead drives what may vary
// without changing the task: sampling of the probe inputs, query order,
// request mix (see README, "What the seed does").
const dataSeed = 1

// taskSpecs are the paper's three evaluation tasks at the sizes measured.
var taskSpecs = map[string]map[size]taskSpec{
	wlSeq:   {sizeFull: {"pyrimidines", 0.10}, sizeSmoke: {"pyrimidines", 0.05}},
	wlSim:   {sizeFull: {"carcinogenesis", 1.0}, sizeSmoke: {"carcinogenesis", 0.25}},
	wlTCP:   {sizeFull: {"mesh", 0.25}, sizeSmoke: {"mesh", 0.05}},
	wlServe: {sizeFull: {"carcinogenesis", 1.0}, sizeSmoke: {"carcinogenesis", 0.25}},
}

// foldSeed is the harness's convention (cmd/ilpbench): folds are split with
// seed 1 and fold 0's partition seed is 1 + 7.
const (
	kfoldSeed     = 1
	partitionSeed = kfoldSeed + 7
)

// task is a generated dataset with its fold-0 train/test split.
type task struct {
	ds       *datasets.Dataset
	fold     xval.Fold
	genTime  time.Duration
	trainLen int
}

func buildTask(spec taskSpec) (*task, error) {
	n := func(x int) int { return max(8, int(float64(x)*spec.scale)) }
	start := time.Now()
	var ds *datasets.Dataset
	switch spec.dataset {
	case "pyrimidines":
		ds = datasets.PyrimidinesSized(n(848), n(764), dataSeed)
	case "carcinogenesis":
		ds = datasets.CarcinogenesisSized(n(162), n(136), dataSeed)
	case "mesh":
		ds = datasets.MeshSized(n(2840), n(278), dataSeed)
	case "trains":
		ds = datasets.Trains() // the fixed 5+/5- quickstart task the tests use
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", spec.dataset)
	}
	gen := time.Since(start)
	folds, err := xval.KFold(ds.Pos, ds.Neg, 5, kfoldSeed)
	if err != nil {
		return nil, fmt.Errorf("bench: split %s: %w", spec.dataset, err)
	}
	t := &task{ds: ds, fold: folds[0], genTime: gen}
	t.trainLen = len(t.fold.TrainPos) + len(t.fold.TrainNeg)
	return t, nil
}

// accuracyPct is the held-out accuracy of theory on the task's test fold.
func (t *task) accuracyPct(theory []logic.Clause) float64 {
	return 100 * covering.Accuracy(t.ds.KB, theory, t.fold.TestPos, t.fold.TestNeg, t.ds.Budget)
}

// compileKB forces the lazy bytecode compilation of a KB by proving one
// atom against it, and returns how long that first proof took.
func compileKB(kb *solve.KB, probe logic.Term) time.Duration {
	m := solve.NewMachine(kb, solve.DefaultBudget)
	start := time.Now()
	m.ProveAtom(probe)
	return time.Since(start)
}

func theoryString(theory []logic.Clause) string {
	var b strings.Builder
	for _, c := range theory {
		b.WriteString(c.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// outcome is what a complete learn call must reproduce bit for bit.
type outcome struct {
	TheorySHA  string `json:"theory_sha256"`
	Epochs     int    `json:"epochs"`
	Inferences int64  `json:"inferences"`
	WireBytes  int64  `json:"wire_bytes"`
	WireMsgs   int64  `json:"wire_msgs"`
}

func theorySHA(theory []logic.Clause) string {
	sum := sha256.Sum256([]byte(theoryString(theory)))
	return hex.EncodeToString(sum[:])
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile is where -update-golden writes; the benchmark runs from the
// repository root.
const goldenFile = "bench/golden.json"

// goldens maps workload → size → pinned outcome.
type goldens map[string]map[size]outcome

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: parse golden.json: %w", err)
	}
	return g, nil
}

// updateGolden rewrites one entry of bench/golden.json on disk.
func updateGolden(workload string, sz size, out outcome) error {
	g := goldens{}
	if b, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("bench: parse %s: %w", goldenFile, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bench: %w (run -update-golden from the repository root)", err)
	}
	if g[workload] == nil {
		g[workload] = map[size]outcome{}
	}
	g[workload][sz] = out
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode goldens: %w", err)
	}
	if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w (run -update-golden from the repository root)", err)
	}
	return nil
}

// checker decides whether a repetition's outcome is correct: equal to the
// golden, or under -update-golden to the first repetition's.
type checker struct {
	workload   string
	want       *outcome
	pinned     bool
	skipBytes  bool // see options.sharedProcess
	firstBytes int64
}

func newChecker(o options) (*checker, error) {
	c := &checker{workload: o.workload, skipBytes: o.sharedProcess}
	if o.updateGolden {
		return c, nil
	}
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	if want, ok := g[o.workload][o.size()]; ok {
		c.want, c.pinned = &want, true
	}
	return c, nil
}

// check returns nil when got is correct and otherwise says what differs.
func (c *checker) check(got outcome) error {
	if c.skipBytes && c.pinned {
		// Byte counts must still repeat within the process.
		if c.firstBytes == 0 {
			c.firstBytes = got.WireBytes
		}
		if got.WireBytes == c.firstBytes {
			got.WireBytes = c.want.WireBytes
		}
	}
	if c.want == nil {
		c.want = &got
		return nil
	}
	if got == *c.want {
		return nil
	}
	against := "the first repetition"
	if c.pinned {
		against = "bench/golden.json"
	}
	return fmt.Errorf("%s: outcome differs from %s:\n got  %+v\n want %+v", c.workload, against, got, *c.want)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only fails on a bad pointer or selector
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stolenTicks reads the hypervisor steal counter (the 8th value of
// /proc/stat's first line, in clock ticks): time this virtual machine's
// processors were runnable but not run. It explains a slow run on a shared
// box; 0 where /proc/stat has no such field.
func stolenTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// xorshift is the repository's deterministic generator (xorshift64*), used
// for every seed-driven choice the benchmark makes.
type xorshift struct{ s uint64 }

func newXorshift(seed int64) *xorshift {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &xorshift{s: s}
}

func (r *xorshift) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *xorshift) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *xorshift) perm(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}
