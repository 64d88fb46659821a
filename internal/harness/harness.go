// Package harness runs the paper's full evaluation protocol (§5.2) and
// renders Tables 1–6 in the paper's layout: 5-fold cross-validation per
// dataset, a sequential MDIE baseline per fold, and p²-mdie runs over the
// processor counts {2, 4, 8} × pipeline widths {nolimit, 10}, measured on
// the simulated cluster (virtual makespan, real message bytes, epochs) and
// on held-out accuracy with a paired t-test at 98% confidence.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/datasets"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/xval"
)

// WidthUnlimited labels the paper's "nolimit" pipeline width.
const WidthUnlimited = 0

// DefaultCost returns the simulated Beowulf cost model.
func DefaultCost() cluster.CostModel { return cluster.DefaultCostModel }

// Config selects the sweep.
type Config struct {
	// Datasets are the tasks to evaluate.
	Datasets []*datasets.Dataset
	// Procs are the worker counts (paper: 2, 4, 8).
	Procs []int
	// Widths are the pipeline widths (paper: nolimit = 0 and 10).
	Widths []int
	// Folds is the cross-validation fold count (paper: 5).
	Folds int
	// Seed drives fold splits and partitioning.
	Seed int64
	// Cost is the simulated cluster model.
	Cost cluster.CostModel
	// CoverParallelism shards every learner's coverage tests across this
	// many goroutines (<0 = GOMAXPROCS, ≤1 = serial). Results are
	// identical; only wall-clock changes.
	CoverParallelism int
}

// WithDefaults fills the paper's protocol values.
func (c Config) WithDefaults() Config {
	if len(c.Procs) == 0 {
		c.Procs = []int{2, 4, 8}
	}
	if len(c.Widths) == 0 {
		c.Widths = []int{WidthUnlimited, 10}
	}
	if c.Folds <= 0 {
		c.Folds = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Key addresses one parallel configuration cell.
type Key struct {
	Dataset string
	Width   int
	Procs   int
}

// Results holds per-fold measurements for every cell.
type Results struct {
	Cfg Config

	// Sequential baseline per dataset, per fold.
	SeqTime map[string][]float64 // virtual seconds
	SeqAcc  map[string][]float64 // accuracy in [0,1]

	// Parallel cells, per fold.
	Time   map[Key][]float64 // virtual seconds
	Comm   map[Key][]float64 // MBytes
	Epochs map[Key][]float64
	Acc    map[Key][]float64
	Wall   map[Key][]float64 // real seconds (simulation cost; not a paper table)
	// Rebal and Joined track the elastic-scheduling counters
	// (core.Metrics.Rebalances / JoinedWorkers): zero throughout a
	// conventional sweep, non-zero when a configuration opts into
	// balancing or mid-run joins.
	Rebal  map[Key][]float64
	Joined map[Key][]float64
	// Restarts and Orphans track the fault-tolerance counters
	// (core.Metrics.MasterRestarts / OrphanReconnects): zero throughout a
	// failure-free sweep, non-zero when a run survived a master
	// crash-restart.
	Restarts map[Key][]float64
	Orphans  map[Key][]float64
	// Flaps, Replayed and Fenced track the link-resilience counters
	// (core.Metrics.LinkFlaps / ReplayedFrames / FencedFrames): zero on
	// the simulated transport and on a flap-free TCP sweep, non-zero when
	// a run absorbed transient link failures or fenced a stale master.
	Flaps    map[Key][]float64
	Replayed map[Key][]float64
	Fenced   map[Key][]float64

	// Links keeps the first fold's per-link traffic table per cell — the
	// drill-down behind Table 4's averages. The same accounting backs a
	// TCP deployment's tables (core.Metrics.Traffic), so these numbers are
	// directly comparable to a real cluster run's.
	Links map[Key]cluster.Traffic
}

func newResults(cfg Config) *Results {
	return &Results{
		Cfg:      cfg,
		SeqTime:  map[string][]float64{},
		SeqAcc:   map[string][]float64{},
		Time:     map[Key][]float64{},
		Comm:     map[Key][]float64{},
		Epochs:   map[Key][]float64{},
		Acc:      map[Key][]float64{},
		Wall:     map[Key][]float64{},
		Rebal:    map[Key][]float64{},
		Joined:   map[Key][]float64{},
		Restarts: map[Key][]float64{},
		Orphans:  map[Key][]float64{},
		Flaps:    map[Key][]float64{},
		Replayed: map[Key][]float64{},
		Fenced:   map[Key][]float64{},
		Links:    map[Key]cluster.Traffic{},
	}
}

// Run executes the sweep, reporting progress to progress when non-nil.
func Run(cfg Config, progress io.Writer) (*Results, error) {
	cfg = cfg.WithDefaults()
	res := newResults(cfg)
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	for _, ds := range cfg.Datasets {
		folds, err := xval.KFold(ds.Pos, ds.Neg, cfg.Folds, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", ds.Name, err)
		}
		for fi, fold := range folds {
			foldSeed := cfg.Seed + int64(100*fi+7)
			// Sequential baseline (Fig. 1). Virtual time for one CPU is
			// total work × the cost model's per-inference cost.
			ex := search.NewExamples(fold.TrainPos, fold.TrainNeg)
			seq, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
				CoverParallelism: cfg.CoverParallelism,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: %s fold %d sequential: %w", ds.Name, fi, err)
			}
			model := cfg.Cost
			seqSecs := float64(seq.Inferences) * modelNsPerInference(model) / 1e9
			res.SeqTime[ds.Name] = append(res.SeqTime[ds.Name], seqSecs)
			seqAcc := covering.Accuracy(ds.KB, seq.Theory, fold.TestPos, fold.TestNeg, ds.Budget)
			res.SeqAcc[ds.Name] = append(res.SeqAcc[ds.Name], seqAcc)
			logf("%s fold %d: sequential %.2fs (virtual), accuracy %.2f%%\n", ds.Name, fi+1, seqSecs, 100*seqAcc)

			for _, w := range cfg.Widths {
				for _, p := range cfg.Procs {
					met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
						Workers: p,
						Width:   w,
						Seed:    foldSeed,
						Search:  ds.Search,
						Bottom:  ds.Bottom,
						Budget:  ds.Budget,
						Cost:    cfg.Cost,

						CoverParallelism: cfg.CoverParallelism,
					})
					if err != nil {
						return nil, fmt.Errorf("harness: %s fold %d p=%d w=%d: %w", ds.Name, fi, p, w, err)
					}
					key := Key{Dataset: ds.Name, Width: w, Procs: p}
					if _, seen := res.Links[key]; !seen {
						res.Links[key] = met.Traffic
					}
					parSecs := met.VirtualTime.Seconds()
					res.Time[key] = append(res.Time[key], parSecs)
					res.Comm[key] = append(res.Comm[key], float64(met.CommBytes)/1e6)
					res.Epochs[key] = append(res.Epochs[key], float64(met.Epochs))
					acc := covering.Accuracy(ds.KB, met.Theory, fold.TestPos, fold.TestNeg, ds.Budget)
					res.Acc[key] = append(res.Acc[key], acc)
					res.Wall[key] = append(res.Wall[key], met.WallTime.Seconds())
					res.Rebal[key] = append(res.Rebal[key], float64(met.Rebalances))
					res.Joined[key] = append(res.Joined[key], float64(met.JoinedWorkers))
					res.Restarts[key] = append(res.Restarts[key], float64(met.MasterRestarts))
					res.Orphans[key] = append(res.Orphans[key], float64(met.OrphanReconnects))
					res.Flaps[key] = append(res.Flaps[key], float64(met.LinkFlaps))
					res.Replayed[key] = append(res.Replayed[key], float64(met.ReplayedFrames))
					res.Fenced[key] = append(res.Fenced[key], float64(met.FencedFrames))
					recovered := ""
					if met.Recoveries > 0 || met.LostWorkers > 0 {
						recovered = fmt.Sprintf(", recoveries=%d lost=%d", met.Recoveries, met.LostWorkers)
					}
					logf("%s fold %d: p=%d w=%s %.2fs, speedup %.2f, %d epochs, %.1f MB, accuracy %.2f%%%s\n",
						ds.Name, fi+1, p, widthLabel(w), parSecs, seqSecs/parSecs, met.Epochs,
						float64(met.CommBytes)/1e6, 100*acc, recovered)
				}
			}
		}
	}
	return res, nil
}

func modelNsPerInference(m cluster.CostModel) float64 {
	if m.NsPerInference > 0 {
		return m.NsPerInference
	}
	return cluster.DefaultCostModel.NsPerInference
}

func widthLabel(w int) string {
	if w == WidthUnlimited {
		return "nolimit"
	}
	return fmt.Sprintf("%d", w)
}

// datasetOrder returns dataset names in run order.
func (r *Results) datasetOrder() []string {
	var names []string
	for _, ds := range r.Cfg.Datasets {
		names = append(names, ds.Name)
	}
	return names
}

// RenderTable1 prints the dataset characterisation.
func (r *Results) RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Datasets Characterization")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\t|E+|\t|E-|")
	for _, ds := range r.Cfg.Datasets {
		name, p, n := ds.Characterize()
		fmt.Fprintf(tw, "%s\t%d\t%d\n", name, p, n)
	}
	tw.Flush()
}

// renderCellTable prints one paper-style table with a row per
// (dataset, width) and a column per processor count.
func (r *Results) renderCellTable(w io.Writer, title string, includeSeq bool,
	cell func(Key) string, seqCell func(string) string) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "Dataset\tWidth"
	if includeSeq {
		header += "\t1"
	}
	for _, p := range r.Cfg.Procs {
		header += fmt.Sprintf("\t%d", p)
	}
	fmt.Fprintln(tw, header)
	for _, name := range r.datasetOrder() {
		for wi, width := range r.Cfg.Widths {
			row := ""
			if wi == 0 {
				row = name
			}
			row += "\t" + widthLabel(width)
			if includeSeq {
				if wi == 0 {
					row += "\t" + seqCell(name)
				} else {
					row += "\t-"
				}
			}
			for _, p := range r.Cfg.Procs {
				row += "\t" + cell(Key{Dataset: name, Width: width, Procs: p})
			}
			fmt.Fprintln(tw, row)
		}
	}
	tw.Flush()
}

// RenderTable2 prints average speedups.
func (r *Results) RenderTable2(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 2. Average speedup observed for %s processors (pipeline width nolimit and 10)", procList(r.Cfg.Procs)),
		false,
		func(k Key) string {
			sp := r.foldSpeedups(k)
			return fmt.Sprintf("%.2f", stats.Mean(sp))
		}, nil)
}

// foldSpeedups returns per-fold speedups for a cell.
func (r *Results) foldSpeedups(k Key) []float64 {
	seq := r.SeqTime[k.Dataset]
	par := r.Time[k]
	out := make([]float64, 0, len(par))
	for i := range par {
		if i < len(seq) {
			out = append(out, stats.Speedup(seq[i], par[i]))
		}
	}
	return out
}

// RenderTable3 prints average execution times in seconds (column 1 is the
// sequential baseline).
func (r *Results) RenderTable3(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 3. Average execution time (in seconds, simulated cluster) for %s processors", procList(r.Cfg.Procs)),
		true,
		func(k Key) string { return fmt.Sprintf("%.0f", stats.Mean(r.Time[k])) },
		func(name string) string { return fmt.Sprintf("%.0f", stats.Mean(r.SeqTime[name])) })
}

// RenderTable4 prints average communication volume in MBytes.
func (r *Results) RenderTable4(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 4. Average communication exchanged (in MBytes) for %s processors", procList(r.Cfg.Procs)),
		false,
		func(k Key) string { return fmt.Sprintf("%.2f", stats.Mean(r.Comm[k])) }, nil)
}

// RenderLinkTraffic prints the per-link byte/message breakdown behind
// Table 4 for one (dataset, width, procs) cell, first fold. Node 0 is the
// master; 1..p are the pipeline workers, so the worker→worker rows are the
// kindStage hand-offs the width limit bounds.
func (r *Results) RenderLinkTraffic(w io.Writer, k Key) {
	tr, ok := r.Links[k]
	if !ok {
		fmt.Fprintf(w, "no traffic recorded for %s w=%s p=%d\n", k.Dataset, widthLabel(k.Width), k.Procs)
		return
	}
	fmt.Fprintf(w, "Per-link traffic, %s w=%s p=%d (fold 1; node 0 = master)\n",
		k.Dataset, widthLabel(k.Width), k.Procs)
	fmt.Fprint(w, tr.String())
}

// RenderTable5 prints average epoch counts.
func (r *Results) RenderTable5(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 5. Average number of epochs for %s processors", procList(r.Cfg.Procs)),
		false,
		func(k Key) string { return fmt.Sprintf("%.0f", stats.Mean(r.Epochs[k])) }, nil)
}

// RenderTable6 prints average predictive accuracy with standard deviations;
// cells marked '*' differ significantly (98% paired t-test) from the
// sequential run — in the paper's results such cells were improvements.
func (r *Results) RenderTable6(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 6. Average predictive accuracy (stddev) for %s processors; '*' = significant at 98%%", procList(r.Cfg.Procs)),
		true,
		func(k Key) string {
			accs := r.Acc[k]
			mark := ""
			if res, err := stats.PairedTTest(accs, r.SeqAcc[k.Dataset]); err == nil && res.Significant(0.98) {
				mark = "*"
			}
			return fmt.Sprintf("%s%.2f (%.2f)", mark, 100*stats.Mean(accs), 100*stats.StdDev(accs))
		},
		func(name string) string {
			return fmt.Sprintf("%.2f (%.2f)", 100*stats.Mean(r.SeqAcc[name]), 100*stats.StdDev(r.SeqAcc[name]))
		})
}

// RenderAll prints every table separated by blank lines.
func (r *Results) RenderAll(w io.Writer) {
	r.RenderTable1(w)
	fmt.Fprintln(w)
	r.RenderTable2(w)
	fmt.Fprintln(w)
	r.RenderTable3(w)
	fmt.Fprintln(w)
	r.RenderTable4(w)
	fmt.Fprintln(w)
	// Table 4 drill-down: per-link traffic of each dataset's largest
	// configuration.
	if len(r.Cfg.Procs) > 0 && len(r.Cfg.Widths) > 0 {
		wmax := r.Cfg.Widths[len(r.Cfg.Widths)-1]
		pmax := r.Cfg.Procs[len(r.Cfg.Procs)-1]
		for _, name := range r.datasetOrder() {
			r.RenderLinkTraffic(w, Key{Dataset: name, Width: wmax, Procs: pmax})
			fmt.Fprintln(w)
		}
	}
	r.RenderTable5(w)
	fmt.Fprintln(w)
	r.RenderTable6(w)
}

// RenderTable dispatches on the paper's table number (1–6).
func (r *Results) RenderTable(n int, w io.Writer) error {
	switch n {
	case 1:
		r.RenderTable1(w)
	case 2:
		r.RenderTable2(w)
	case 3:
		r.RenderTable3(w)
	case 4:
		r.RenderTable4(w)
	case 5:
		r.RenderTable5(w)
	case 6:
		r.RenderTable6(w)
	default:
		return fmt.Errorf("harness: no table %d (paper has tables 1-6)", n)
	}
	return nil
}

// ShapeChecks verifies the qualitative findings the paper reports; the
// returned list contains one line per check, prefixed PASS/FAIL. Used by
// `ilpbench -shape` and the integration tests; DESIGN.md §4 indexes the
// experiments they check.
func (r *Results) ShapeChecks() []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		prefix := "PASS"
		if !ok {
			prefix = "FAIL"
		}
		out = append(out, fmt.Sprintf("%s: %s", prefix, fmt.Sprintf(format, args...)))
	}
	maxP := 0
	for _, p := range r.Cfg.Procs {
		if p > maxP {
			maxP = p
		}
	}
	for _, name := range r.datasetOrder() {
		for _, width := range r.Cfg.Widths {
			// Speedup grows with processors.
			sp := make([]float64, 0, len(r.Cfg.Procs))
			for _, p := range r.Cfg.Procs {
				sp = append(sp, stats.Mean(r.foldSpeedups(Key{name, width, p})))
			}
			sorted := sort.Float64sAreSorted(sp)
			check(sorted, "%s w=%s: speedup nondecreasing in p: %v", name, widthLabel(width), fmtFloats(sp))
			// Epochs shrink (or hold) as processors grow.
			eps := make([]float64, 0, len(r.Cfg.Procs))
			for _, p := range r.Cfg.Procs {
				eps = append(eps, stats.Mean(r.Epochs[Key{name, width, p}]))
			}
			nonInc := true
			for i := 1; i < len(eps); i++ {
				if eps[i] > eps[i-1]+0.5 {
					nonInc = false
				}
			}
			check(nonInc, "%s w=%s: epochs nonincreasing in p: %v", name, widthLabel(width), fmtFloats(eps))
		}
		// Width limit cuts communication at the largest p.
		if len(r.Cfg.Widths) >= 2 {
			unl := stats.Mean(r.Comm[Key{name, r.Cfg.Widths[0], maxP}])
			lim := stats.Mean(r.Comm[Key{name, r.Cfg.Widths[1], maxP}])
			check(lim <= unl, "%s: width-limited communication (%.2f MB) ≤ unlimited (%.2f MB) at p=%d", name, lim, unl, maxP)
		}
		// Accuracy is preserved: no significant degradation.
		degraded := false
		for _, width := range r.Cfg.Widths {
			for _, p := range r.Cfg.Procs {
				key := Key{name, width, p}
				res, err := stats.PairedTTest(r.Acc[key], r.SeqAcc[name])
				if err == nil && res.Significant(0.98) && stats.Mean(r.Acc[key]) < stats.Mean(r.SeqAcc[name]) {
					degraded = true
				}
			}
		}
		check(!degraded, "%s: no significant accuracy degradation in any cell", name)
	}
	return out
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func procList(ps []int) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return strings.Join(parts, ", ")
}
