// Package ilp is a from-scratch Go implementation of Inductive Logic
// Programming with pipelined data-parallel learning, reproducing
//
//	Fonseca, Silva, Santos Costa, Camacho:
//	"A pipelined data-parallel algorithm for ILP", IEEE CLUSTER 2005.
//
// The package offers three levels of use:
//
//   - Learning on the bundled datasets (the paper's carcinogenesis, mesh
//     and pyrimidines workloads, synthetically regenerated, plus the
//     Michalski trains toy task): see DatasetByName, LearnSequential,
//     LearnParallel and CrossValidate.
//
//   - Learning on your own relational data: describe background knowledge
//     and examples in Prolog-subset syntax and the language bias in
//     modeh/modeb declarations, then call Define followed by the learners.
//
//   - Reproducing the paper's evaluation: the cmd/ilpbench binary and the
//     benchmarks in bench_test.go regenerate every table of the paper's
//     Section 5 on a simulated Beowulf cluster.
//
// The heavy lifting lives in internal packages: internal/logic (terms,
// unification, θ-subsumption), internal/solve (bounded SLD resolution),
// internal/bottom (MDIE saturation), internal/search (bottom-clause-
// constrained rule search), internal/covering (the sequential baseline),
// internal/cluster (the simulated distributed-memory machine) and
// internal/core (the p²-mdie master/worker algorithm).
package ilp

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/bottom"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/datasets"
	"repro/internal/harness"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/parcov"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Re-exported types: the public API surface is expressed in terms of these
// aliases so downstream code never imports internal packages.
type (
	// Dataset is a ready-to-learn task (background, examples, bias).
	Dataset = datasets.Dataset
	// Clause is a definite clause; learned theories are []Clause.
	Clause = logic.Clause
	// Term is a first-order term; examples are ground Terms.
	Term = logic.Term
	// SearchSettings configures the rule search (width, precision, limits).
	SearchSettings = search.Settings
	// BottomOptions configures saturation (variable depth, recall).
	BottomOptions = bottom.Options
	// Budget bounds individual proofs.
	Budget = solve.Budget
	// CostModel is the simulated cluster's hardware model.
	CostModel = cluster.CostModel
	// SequentialResult is returned by LearnSequential.
	SequentialResult = covering.Result
	// ParallelMetrics is returned by LearnParallel (theory + run metrics).
	ParallelMetrics = core.Metrics
	// ParallelCoverageMetrics is returned by LearnParallelCoverage.
	ParallelCoverageMetrics = parcov.Metrics
	// TTestResult is a paired t-test outcome.
	TTestResult = stats.TTestResult
)

// DefaultCostModel approximates the paper's 2005 Beowulf cluster.
var DefaultCostModel = cluster.DefaultCostModel

// DatasetByName returns a bundled dataset: "carcinogenesis", "mesh",
// "pyrimidines" (paper sizes, Table 1) or "trains".
func DatasetByName(name string, seed int64) (*Dataset, error) {
	return datasets.ByName(name, seed)
}

// LoadDataset parses a dataset from its textual interchange form (the
// format written by cmd/ilpgen and SaveDataset): mode declarations,
// background clauses, and pos/1 / neg/1 example wrappers.
func LoadDataset(name, src string) (*Dataset, error) {
	return datasets.ParseText(name, src)
}

// SaveDataset renders a dataset in the textual interchange form; the
// output parses back with LoadDataset.
func SaveDataset(ds *Dataset) string { return datasets.FormatText(ds) }

// PaperDatasets returns the paper's three evaluation datasets.
func PaperDatasets(seed int64) []*Dataset { return datasets.Paper(seed) }

// Define builds a custom learning task from Prolog-subset sources:
// background clauses, modeh/modeb declarations, and ground example atoms
// (one term per string). The returned Dataset carries sensible default
// search settings; adjust its fields before learning if needed.
func Define(name, background, modes string, pos, neg []string) (*Dataset, error) {
	kb := solve.NewKB()
	if err := kb.AddSource(background); err != nil {
		return nil, fmt.Errorf("ilp: background: %w", err)
	}
	ms, err := mode.ParseSet(modes)
	if err != nil {
		return nil, fmt.Errorf("ilp: modes: %w", err)
	}
	parseExamples := func(srcs []string, kind string) ([]Term, error) {
		out := make([]Term, 0, len(srcs))
		for _, s := range srcs {
			t, err := logic.ParseTerm(s)
			if err != nil {
				return nil, fmt.Errorf("ilp: %s example %q: %w", kind, s, err)
			}
			if !t.IsGround() || !t.IsCallable() {
				return nil, fmt.Errorf("ilp: %s example %q must be a ground atom", kind, s)
			}
			out = append(out, t)
		}
		return out, nil
	}
	posT, err := parseExamples(pos, "positive")
	if err != nil {
		return nil, err
	}
	negT, err := parseExamples(neg, "negative")
	if err != nil {
		return nil, err
	}
	if len(posT) == 0 {
		return nil, fmt.Errorf("ilp: at least one positive example is required")
	}
	return &Dataset{
		Name:   name,
		KB:     kb,
		Pos:    posT,
		Neg:    negT,
		Modes:  ms,
		Search: search.Settings{}.WithDefaults(),
	}, nil
}

// LearnSequential runs the sequential MDIE covering algorithm (the paper's
// Figure 1 baseline) with the dataset's recommended settings.
func LearnSequential(ds *Dataset) (*SequentialResult, error) {
	ex := search.NewExamples(ds.Pos, ds.Neg)
	return covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
		Search: ds.Search,
		Bottom: ds.Bottom,
		Budget: ds.Budget,
	})
}

// ParallelOptions tunes LearnParallel beyond workers and width.
type ParallelOptions struct {
	// Seed drives example partitioning (default 1).
	Seed int64
	// Cost overrides the simulated cluster model.
	Cost CostModel
	// Trace observes simulated cluster events.
	Trace func(cluster.Event)
	// Balance enables throughput-aware load rebalancing between epochs:
	// the master deals uncovered positives proportionally to each worker's
	// measured throughput instead of evenly. Metrics.Rebalances counts the
	// barriers.
	Balance bool
	// Recover enables worker-failure recovery: a dead worker is excluded,
	// its examples are redistributed, and the run completes on the
	// survivors (Metrics.Recoveries/LostWorkers count the events).
	// Failure-free runs are identical with either setting.
	Recover bool
	// RecvTimeout bounds every blocking protocol receive; 0 = no deadline.
	RecvTimeout time.Duration
	// CheckpointDir makes the master durable: epoch-boundary snapshots are
	// written there atomically so a crashed master can resume
	// (Metrics.MasterRestarts counts resumes). Wire traffic is unchanged.
	CheckpointDir string
	// PublishDir streams serving snapshots: the master writes an immutable
	// internal/serve artifact (theory + background + examples) there at
	// every epoch boundary and after the final epoch, for cmd/ilpserve to
	// pick up with -watch. Wire traffic is unchanged.
	PublishDir string
}

// LearnParallel runs p²-mdie (the paper's pipelined data-parallel
// algorithm) with the given worker count and pipeline width
// (width ≤ 0 = unlimited). The returned metrics include the learned
// theory, the simulated cluster makespan, communication volume and epochs.
func LearnParallel(ds *Dataset, workers, width int, opts ...ParallelOptions) (*ParallelMetrics, error) {
	var o ParallelOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	var publish func(int, []logic.Clause) error
	if o.PublishDir != "" {
		fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
		publish = serve.Publisher(o.PublishDir, ds.Name, fp, ds.KB, ds.Budget, ds.Pos, ds.Neg)
	}
	return core.Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, core.Config{
		Workers:       workers,
		Width:         width,
		Seed:          o.Seed,
		Search:        ds.Search,
		Bottom:        ds.Bottom,
		Budget:        ds.Budget,
		Cost:          o.Cost,
		Trace:         o.Trace,
		Balance:       o.Balance,
		Recover:       o.Recover,
		RecvTimeout:   o.RecvTimeout,
		CheckpointDir: o.CheckpointDir,
		Publish:       publish,
	})
}

// LearnParallelCoverage runs the related-work baseline (§6): a serial MDIE
// search whose coverage tests are distributed over the workers of a
// fail-stop simulated cluster. It reads only ParallelOptions.Seed and Cost
// and returns an error naming the first other option that is set.
func LearnParallelCoverage(ds *Dataset, workers int, opts ...ParallelOptions) (*ParallelCoverageMetrics, error) {
	var o ParallelOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Seed" && name != "Cost" && !v.Field(i).IsZero() {
			return nil, fmt.Errorf("ilp: LearnParallelCoverage does not support ParallelOptions.%s", name)
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return parcov.Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, parcov.Config{
		Workers: workers,
		Seed:    o.Seed,
		Search:  ds.Search,
		Bottom:  ds.Bottom,
		Budget:  ds.Budget,
		Cost:    o.Cost,
	})
}

// Accuracy scores a theory on labelled examples: the fraction of positives
// covered plus negatives not covered.
func Accuracy(ds *Dataset, theory []Clause, pos, neg []Term) float64 {
	return covering.Accuracy(ds.KB, theory, pos, neg, ds.Budget)
}

// Covers reports whether the theory entails the ground example atom under
// the dataset's background knowledge.
func Covers(ds *Dataset, theory []Clause, example Term) bool {
	m := solve.NewMachine(ds.KB, ds.Budget)
	return search.TheoryCovers(m, theory, example)
}

// CVResult summarises a sequential-vs-parallel cross-validation.
type CVResult struct {
	Folds  int
	SeqAcc []float64
	ParAcc []float64
	// TTest compares parallel and sequential per-fold accuracies (paired,
	// two-sided; the paper tests at 98% confidence).
	TTest TTestResult
}

// MeanSeq returns the mean sequential accuracy.
func (r *CVResult) MeanSeq() float64 { return stats.Mean(r.SeqAcc) }

// MeanPar returns the mean parallel accuracy.
func (r *CVResult) MeanPar() float64 { return stats.Mean(r.ParAcc) }

// CrossValidate runs k-fold cross-validation (the paper uses k = 5)
// comparing the sequential baseline against p²-mdie with the given worker
// count and width on each fold.
func CrossValidate(ds *Dataset, k, workers, width int, seed int64) (*CVResult, error) {
	res := &CVResult{Folds: k}
	if _, _, err := harness.Paired(ds, k, workers, width, seed, func(_ int, seq, par harness.Record) {
		res.SeqAcc = append(res.SeqAcc, seq.Acc)
		res.ParAcc = append(res.ParAcc, par.Acc)
	}); err != nil {
		return nil, err
	}
	if tt, err := stats.PairedTTest(res.ParAcc, res.SeqAcc); err == nil {
		res.TTest = tt
	}
	return res, nil
}

// MinimizeTheory removes redundant rules (θ-subsumption between rules) and
// redundant body literals (Plotkin reduction within rules), returning an
// equivalent, canonicalised theory. p²-mdie's epochs can accept
// overlapping rules from independently partitioned searches, so minimising
// the final theory is a common post-processing step.
func MinimizeTheory(rules []Clause) []Clause { return theory.Minimize(rules) }

// TheoryStats summarises a theory's shape (rule/fact counts, body sizes).
type TheoryStats = theory.Stats

// SummarizeTheory computes TheoryStats.
func SummarizeTheory(rules []Clause) TheoryStats { return theory.Summarize(rules) }

// Confusion is a binary confusion matrix with accuracy/precision/recall/F1.
type Confusion = theory.Confusion

// EvaluateTheory scores a theory on labelled examples, returning the full
// confusion matrix (Accuracy only reports the diagonal fraction).
func EvaluateTheory(ds *Dataset, rules []Clause, pos, neg []Term) Confusion {
	return theory.Evaluate(ds.KB, rules, pos, neg, ds.Budget)
}

// ParseTheory parses a theory from Prolog-subset source (one clause per
// '.'-terminated statement) — useful for evaluating hand-written theories.
func ParseTheory(src string) ([]Clause, error) {
	return logic.ParseProgram(src)
}

// TheoryString renders a theory one clause per line, with trailing periods.
func TheoryString(theory []Clause) string {
	out := ""
	for _, c := range theory {
		out += c.String() + ".\n"
	}
	return out
}
