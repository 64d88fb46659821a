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
	"repro/internal/parcov"
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

// Record is one learner's measurements on one fold: every quantity behind
// Tables 2–6 and Ablations A–E.
type Record struct {
	Time   float64 // virtual seconds
	MB     float64 // payload MBytes exchanged
	Msgs   float64 // messages exchanged
	Epochs float64
	Acc    float64 // held-out accuracy in [0,1]
	Wall   float64 // real seconds (simulation cost; not a paper table)
	Rebal  float64 // completed redeal barriers (core.Metrics.Rebalances)
	// Links is the per-link traffic table behind MB — the drill-down
	// behind Table 4's averages. The same accounting backs a TCP
	// deployment's tables (core.Metrics.Traffic), so these numbers are
	// directly comparable to a real cluster run's.
	Links cluster.Traffic
}

func timeOf(r Record) float64   { return r.Time }
func mbOf(r Record) float64     { return r.MB }
func msgsOf(r Record) float64   { return r.Msgs }
func epochsOf(r Record) float64 { return r.Epochs }
func accOf(r Record) float64    { return r.Acc }
func wallOf(r Record) float64   { return r.Wall }
func rebalOf(r Record) float64  { return r.Rebal }

// col reads one quantity off every run, in fold order.
func col(runs []Record, of func(Record) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = of(r)
	}
	return out
}

// mean is the fold mean of one quantity.
func mean(runs []Record, of func(Record) float64) float64 { return stats.Mean(col(runs, of)) }

// Results holds every fold's runs for every cell.
type Results struct {
	Cfg Config
	Seq map[string][]Record // sequential baseline per dataset
	Par map[Key][]Record    // p²-mdie per cell
}

// splitError is a fold split's failure, told apart from a learner's.
type splitError struct{ error }

// eachFold splits ds into k stratified folds with seed and calls fn on each
// in order, stopping at the first error.
func eachFold(ds *datasets.Dataset, k int, seed int64, fn func(fi int, f xval.Fold) error) error {
	folds, err := xval.KFold(ds.Pos, ds.Neg, k, seed)
	if err != nil {
		return splitError{err}
	}
	for fi, f := range folds {
		if err := fn(fi, f); err != nil {
			return err
		}
	}
	return nil
}

// learnSeq runs the sequential baseline (Fig. 1) on one fold. Virtual time
// for one CPU is total work × the cost model's per-inference cost.
func learnSeq(ds *datasets.Dataset, f xval.Fold, cost cluster.CostModel, coverPar int) (Record, error) {
	seq, err := covering.Learn(ds.KB, search.NewExamples(f.TrainPos, f.TrainNeg), ds.Modes, covering.Config{
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		CoverParallelism: coverPar,
	})
	if err != nil {
		return Record{}, err
	}
	ns := cost.NsPerInference
	if ns <= 0 {
		ns = cluster.DefaultCostModel.NsPerInference
	}
	return Record{
		Time: float64(seq.Inferences) * ns / 1e9,
		Acc:  covering.Accuracy(ds.KB, seq.Theory, f.TestPos, f.TestNeg, ds.Budget),
	}, nil
}

// learnP2 runs p²-mdie on one fold; cfg's search, saturation and proof
// settings are the dataset's.
func learnP2(ds *datasets.Dataset, f xval.Fold, cfg core.Config) (Record, error) {
	cfg.Search, cfg.Bottom, cfg.Budget = ds.Search, ds.Bottom, ds.Budget
	met, err := core.Learn(ds.KB, f.TrainPos, f.TrainNeg, ds.Modes, cfg)
	if err != nil {
		return Record{}, err
	}
	return Record{
		Time: met.VirtualTime.Seconds(), MB: float64(met.CommBytes) / 1e6, Msgs: float64(met.CommMessages),
		Epochs: float64(met.Epochs), Rebal: float64(met.Rebalances),
		Acc:  covering.Accuracy(ds.KB, met.Theory, f.TestPos, f.TestNeg, ds.Budget),
		Wall: met.WallTime.Seconds(), Links: met.Traffic,
	}, nil
}

// learnParcov runs the parallel-coverage-testing baseline (§6) on one
// fold; cfg's search, saturation and proof settings are the dataset's.
func learnParcov(ds *datasets.Dataset, f xval.Fold, cfg parcov.Config) (Record, error) {
	cfg.Search, cfg.Bottom, cfg.Budget = ds.Search, ds.Bottom, ds.Budget
	met, err := parcov.Learn(ds.KB, f.TrainPos, f.TrainNeg, ds.Modes, cfg)
	if err != nil {
		return Record{}, err
	}
	return Record{
		Time: met.VirtualTime.Seconds(), MB: float64(met.CommBytes) / 1e6, Msgs: float64(met.CommMessages),
		Acc:  covering.Accuracy(ds.KB, met.Theory, f.TestPos, f.TestNeg, ds.Budget),
		Wall: met.WallTime.Seconds(), Links: met.Traffic,
	}, nil
}

// logger prints to progress, or nowhere when it is nil.
func logger(progress io.Writer) func(format string, args ...any) {
	return func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
}

// Run executes the sweep, reporting progress to progress when non-nil.
func Run(cfg Config, progress io.Writer) (*Results, error) {
	cfg = cfg.WithDefaults()
	res := &Results{Cfg: cfg, Seq: map[string][]Record{}, Par: map[Key][]Record{}}
	logf := logger(progress)
	for _, ds := range cfg.Datasets {
		err := eachFold(ds, cfg.Folds, cfg.Seed, func(fi int, fold xval.Fold) error {
			seq, err := learnSeq(ds, fold, cfg.Cost, cfg.CoverParallelism)
			if err != nil {
				return fmt.Errorf("harness: %s fold %d sequential: %w", ds.Name, fi, err)
			}
			res.Seq[ds.Name] = append(res.Seq[ds.Name], seq)
			logf("%s fold %d: sequential %.2fs (virtual), accuracy %.2f%%\n", ds.Name, fi+1, seq.Time, 100*seq.Acc)
			for _, w := range cfg.Widths {
				for _, p := range cfg.Procs {
					par, err := learnP2(ds, fold, core.Config{
						Workers: p, Width: w, Seed: cfg.Seed + int64(100*fi+7), Cost: cfg.Cost,
						CoverParallelism: cfg.CoverParallelism,
					})
					if err != nil {
						return fmt.Errorf("harness: %s fold %d p=%d w=%d: %w", ds.Name, fi, p, w, err)
					}
					key := Key{Dataset: ds.Name, Width: w, Procs: p}
					res.Par[key] = append(res.Par[key], par)
					logf("%s fold %d: p=%d w=%s %.2fs, speedup %.2f, %.0f epochs, %.1f MB, accuracy %.2f%%\n",
						ds.Name, fi+1, p, widthLabel(w), par.Time, seq.Time/par.Time, par.Epochs, par.MB, 100*par.Acc)
				}
			}
			return nil
		})
		if se, ok := err.(splitError); ok {
			return nil, fmt.Errorf("harness: %s: %w", ds.Name, se.error)
		}
		if err != nil {
			return nil, err
		}
	}
	return res, nil
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
		func(k Key) string { return fmt.Sprintf("%.2f", stats.Mean(r.foldSpeedups(k))) }, nil)
}

// foldSpeedups returns per-fold speedups for a cell.
func (r *Results) foldSpeedups(k Key) []float64 {
	seq, par := r.Seq[k.Dataset], r.Par[k]
	out := make([]float64, 0, len(par))
	for i := range par {
		if i < len(seq) {
			out = append(out, stats.Speedup(seq[i].Time, par[i].Time))
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
		func(k Key) string { return fmt.Sprintf("%.0f", mean(r.Par[k], timeOf)) },
		func(name string) string { return fmt.Sprintf("%.0f", mean(r.Seq[name], timeOf)) })
}

// RenderTable4 prints average communication volume in MBytes.
func (r *Results) RenderTable4(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 4. Average communication exchanged (in MBytes) for %s processors", procList(r.Cfg.Procs)),
		false,
		func(k Key) string { return fmt.Sprintf("%.2f", mean(r.Par[k], mbOf)) }, nil)
}

// RenderLinkTraffic prints the per-link byte/message breakdown behind
// Table 4 for one (dataset, width, procs) cell, first fold. Node 0 is the
// master; 1..p are the pipeline workers, so the worker→worker rows are the
// kindStage hand-offs the width limit bounds.
func (r *Results) RenderLinkTraffic(w io.Writer, k Key) {
	runs := r.Par[k]
	if len(runs) == 0 {
		fmt.Fprintf(w, "no traffic recorded for %s w=%s p=%d\n", k.Dataset, widthLabel(k.Width), k.Procs)
		return
	}
	fmt.Fprintf(w, "Per-link traffic, %s w=%s p=%d (fold 1; node 0 = master)\n",
		k.Dataset, widthLabel(k.Width), k.Procs)
	fmt.Fprint(w, runs[0].Links.String())
}

// RenderTable5 prints average epoch counts.
func (r *Results) RenderTable5(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 5. Average number of epochs for %s processors", procList(r.Cfg.Procs)),
		false,
		func(k Key) string { return fmt.Sprintf("%.0f", mean(r.Par[k], epochsOf)) }, nil)
}

// RenderTable6 prints average predictive accuracy with standard deviations;
// cells marked '*' differ significantly (98% paired t-test) from the
// sequential run — in the paper's results such cells were improvements.
func (r *Results) RenderTable6(w io.Writer) {
	r.renderCellTable(w,
		fmt.Sprintf("Table 6. Average predictive accuracy (stddev) for %s processors; '*' = significant at 98%%", procList(r.Cfg.Procs)),
		true,
		func(k Key) string {
			mark := ""
			if significant(r.Par[k], r.Seq[k.Dataset]) {
				mark = "*"
			}
			return mark + accCell(r.Par[k])
		},
		func(name string) string { return accCell(r.Seq[name]) })
}

// significant reports whether par's accuracies differ from seq's, fold by
// fold, at 98% confidence (paired t-test).
func significant(par, seq []Record) bool {
	res, err := stats.PairedTTest(col(par, accOf), col(seq, accOf))
	return err == nil && res.Significant(0.98)
}

// accCell prints the fold-mean accuracy and its standard deviation, in
// percent.
func accCell(runs []Record) string {
	accs := col(runs, accOf)
	return fmt.Sprintf("%.2f (%.2f)", 100*stats.Mean(accs), 100*stats.StdDev(accs))
}

// RenderAll prints every table separated by blank lines.
func (r *Results) RenderAll(w io.Writer) {
	for _, table := range []func(io.Writer){r.RenderTable1, r.RenderTable2, r.RenderTable3, r.RenderTable4} {
		table(w)
		fmt.Fprintln(w)
	}
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
	tables := []func(io.Writer){r.RenderTable1, r.RenderTable2, r.RenderTable3, r.RenderTable4, r.RenderTable5, r.RenderTable6}
	if n < 1 || n > len(tables) {
		return fmt.Errorf("harness: no table %d (paper has tables 1-6)", n)
	}
	tables[n-1](w)
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
		maxP = max(maxP, p)
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
				eps = append(eps, mean(r.Par[Key{name, width, p}], epochsOf))
			}
			nonInc := true
			for i := 1; i < len(eps); i++ {
				if eps[i] > eps[i-1]+0.5 {
					nonInc = false
				}
			}
			check(nonInc, "%s w=%s: epochs nonincreasing in p: %v", name, widthLabel(width), fmtFloats(eps))
		}
		// Every width limit cuts communication at the largest p.
		if runs, ok := r.Par[Key{name, WidthUnlimited, maxP}]; ok {
			unl := mean(runs, mbOf)
			for _, width := range r.Cfg.Widths {
				if width != WidthUnlimited {
					lim := mean(r.Par[Key{name, width, maxP}], mbOf)
					check(lim <= unl, "%s: width-limited communication (%.2f MB) ≤ unlimited (%.2f MB) at p=%d", name, lim, unl, maxP)
				}
			}
		}
		// Accuracy is preserved: no significant degradation.
		degraded := false
		for _, width := range r.Cfg.Widths {
			for _, p := range r.Cfg.Procs {
				par := r.Par[Key{name, width, p}]
				if significant(par, r.Seq[name]) && mean(par, accOf) < mean(r.Seq[name], accOf) {
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
