package harness

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/parcov"
	"repro/internal/stats"
	"repro/internal/xval"
)

// Row is one labelled line of an ablation table: every fold's runs of the
// learners it reports.
type Row struct {
	Label string
	// Seq is the sequential baseline the row's speedups and significance
	// are measured against.
	Seq    []Record
	P2     []Record
	Parcov []Record
}

// Ablation is one of the design-choice studies DESIGN.md §4 indexes as
// Ablations A–E: a titled table of labelled rows. A Run…Ablation that
// fails returns its error with the table as far as it got.
type Ablation struct {
	Title  string
	Header string
	Rows   []Row
	cells  func(Row) string // the columns after the label
}

// Render prints the ablation table.
func (ab *Ablation) Render(w io.Writer) {
	fmt.Fprintln(w, ab.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, ab.Header)
	for _, row := range ab.Rows {
		fmt.Fprintf(tw, "%s\t%s\n", row.Label, ab.cells(row))
	}
	tw.Flush()
}

// newAblation returns an ablation with one empty row per parameter,
// labelled by label.
func newAblation[T any](title, header string, params []T, label func(T) string, cells func(Row) string) *Ablation {
	ab := &Ablation{Title: title, Header: header, cells: cells}
	for _, p := range params {
		ab.Rows = append(ab.Rows, Row{Label: label(p)})
	}
	return ab
}

// orFive is the paper's fold count when folds is unset.
func orFive(folds int) int {
	if folds <= 0 {
		return 5
	}
	return folds
}

// widthAblation is Ablation A's table: the pipeline width swept beyond the
// paper's {nolimit, 10} at a fixed processor count.
func widthAblation(name string, procs int, widths []int) *Ablation {
	return newAblation(fmt.Sprintf("Ablation A. Pipeline width sweep on %s at p=%d", name, procs),
		"Width\tTime (s)\tSpeedup\tComm (MB)", widths, widthLabel,
		func(r Row) string {
			tm := mean(r.P2, timeOf)
			return fmt.Sprintf("%.1f\t%.2f\t%.2f", tm, stats.Speedup(mean(r.Seq, timeOf), tm), mean(r.P2, mbOf))
		})
}

// RunWidthAblation measures the width sweep on one dataset — Ablation A.
func RunWidthAblation(ds *datasets.Dataset, procs int, widths []int, folds int, seed int64, cost cluster.CostModel, progress io.Writer) (*Ablation, error) {
	if len(widths) == 0 {
		widths = []int{1, 5, 10, 50, WidthUnlimited}
	}
	ab := widthAblation(ds.Name, procs, widths)
	logf := logger(progress)
	return ab, eachFold(ds, orFive(folds), seed, func(fi int, f xval.Fold) error {
		seq, err := learnSeq(ds, f, cost)
		if err != nil {
			return err
		}
		for i, w := range widths {
			par, err := learnP2(ds, f, core.Config{Workers: procs, Width: w, Seed: seed + int64(fi), Cost: cost})
			if err != nil {
				return err
			}
			ab.Rows[i].Seq = append(ab.Rows[i].Seq, seq)
			ab.Rows[i].P2 = append(ab.Rows[i].P2, par)
			logf("%s fold %d w=%s: %.2fs, %.2f MB\n", ds.Name, fi+1, widthLabel(w), par.Time, par.MB)
		}
		return nil
	})
}

// parcovAblation is Ablation B's table: p²-mdie against the related-work
// baseline that only parallelises coverage tests (§6).
func parcovAblation(name string, procs []int) *Ablation {
	return newAblation(fmt.Sprintf("Ablation B. p2-mdie vs parallel coverage testing on %s (width 10)", name),
		"p\tp2 speedup\tparcov speedup\tp2 msgs\tparcov msgs", procs, strconv.Itoa,
		func(r Row) string {
			seq := mean(r.Seq, timeOf)
			return fmt.Sprintf("%.2f\t%.2f\t%.0f\t%.0f",
				stats.Speedup(seq, mean(r.P2, timeOf)), stats.Speedup(seq, mean(r.Parcov, timeOf)),
				mean(r.P2, msgsOf), mean(r.Parcov, msgsOf))
		})
}

// RunParcovAblation measures both parallelisations on one dataset —
// Ablation B.
func RunParcovAblation(ds *datasets.Dataset, procs []int, folds int, seed int64, cost cluster.CostModel, progress io.Writer) (*Ablation, error) {
	if len(procs) == 0 {
		procs = []int{2, 4, 8}
	}
	ab := parcovAblation(ds.Name, procs)
	logf := logger(progress)
	return ab, eachFold(ds, orFive(folds), seed, func(fi int, f xval.Fold) error {
		seq, err := learnSeq(ds, f, cost)
		if err != nil {
			return err
		}
		for i, p := range procs {
			p2, err := learnP2(ds, f, core.Config{Workers: p, Width: 10, Seed: seed + int64(fi), Cost: cost})
			if err != nil {
				return err
			}
			pc, err := learnParcov(ds, f, parcov.Config{Workers: p, Seed: seed + int64(fi), Cost: cost})
			if err != nil {
				return err
			}
			row := &ab.Rows[i]
			row.Seq, row.P2, row.Parcov = append(row.Seq, seq), append(row.P2, p2), append(row.Parcov, pc)
			logf("%s fold %d p=%d: p2=%.2fs parcov=%.2fs\n", ds.Name, fi+1, p, p2.Time, pc.Time)
		}
		return nil
	})
}

// A policy is one way of dealing the uncovered positives to the workers
// between epochs.
type policy struct {
	label, name string // table row; progress lines
	repartition bool   // core.Config.RepartitionEachEpoch
	balance     bool   // core.Config.Balance
}

var (
	// Ablation C: the §4.1 alternative the paper declined, re-balancing
	// uncovered positives across workers before every epoch. The expected
	// outcome (and the paper's stated reason to skip it): similar
	// learning, markedly more communication.
	repartitionPolicies = []policy{
		{label: "fixed (paper)", name: "fixed"},
		{label: "per-epoch", name: "repartitioned", repartition: true},
	}
	// Ablation E: the paper's static random partition, the even per-epoch
	// repartition, and sched.Balancer's proportional redeal on the
	// cost-skewed trains workload. The headline number is simulated
	// makespan; the PERF.md before/after row comes from this table.
	balancePolicies = []policy{
		{label: "static (paper)", name: "static"},
		{label: "even per-epoch", name: "repartition", repartition: true},
		{label: "throughput-aware", name: "balance", balance: true},
	}
)

// policyAblation is the table of a partition-policy sweep; with rebal its
// rows also report the redeal barriers.
func policyAblation(title, header string, policies []policy, rebal bool) *Ablation {
	return newAblation(title, header, policies, func(p policy) string { return p.label }, func(r Row) string {
		s := fmt.Sprintf("%.2f\t%.2f\t%.1f", mean(r.P2, timeOf), mean(r.P2, mbOf), mean(r.P2, epochsOf))
		if rebal {
			s += fmt.Sprintf("\t%.1f", mean(r.P2, rebalOf))
		}
		return s
	})
}

// sweepPolicies fills a policy table's rows: p²-mdie at width 10 under
// each policy, fold by fold.
func sweepPolicies(ab *Ablation, ds *datasets.Dataset, procs, folds int, seed int64, cost cluster.CostModel, policies []policy, rebal bool, progress io.Writer) (*Ablation, error) {
	logf := logger(progress)
	return ab, eachFold(ds, orFive(folds), seed, func(fi int, f xval.Fold) error {
		for i, pol := range policies {
			par, err := learnP2(ds, f, core.Config{
				Workers: procs, Width: 10, Seed: seed + int64(fi), Cost: cost,
				RepartitionEachEpoch: pol.repartition, Balance: pol.balance,
			})
			if err != nil {
				return err
			}
			ab.Rows[i].P2 = append(ab.Rows[i].P2, par)
			line := fmt.Sprintf("%s fold %d (%s): %.2fs, %.2f MB, %.0f epochs", ds.Name, fi+1, pol.name, par.Time, par.MB, par.Epochs)
			if rebal {
				line += fmt.Sprintf(", %.0f rebalances", par.Rebal)
			}
			logf("%s\n", line)
		}
		return nil
	})
}

// repartitionAblation is Ablation C's table.
func repartitionAblation(name string, procs int) *Ablation {
	return policyAblation(fmt.Sprintf("Ablation C. Per-epoch repartitioning on %s at p=%d (width 10)", name, procs),
		"Partitioning\tTime (s)\tComm (MB)\tEpochs", repartitionPolicies, false)
}

// RunRepartitionAblation measures p²-mdie with and without per-epoch
// repartitioning at width 10 — Ablation C.
func RunRepartitionAblation(ds *datasets.Dataset, procs, folds int, seed int64, cost cluster.CostModel, progress io.Writer) (*Ablation, error) {
	return sweepPolicies(repartitionAblation(ds.Name, procs), ds, procs, folds, seed, cost, repartitionPolicies, false, progress)
}

// balanceAblation is Ablation E's table.
func balanceAblation(n int, skew float64, procs int) *Ablation {
	return policyAblation(fmt.Sprintf("Ablation E. Load balancing on trains-skew (n=%d, skew=%.2f, p=%d, width 10)", n, skew, procs),
		"Policy\tTime (s)\tComm (MB)\tEpochs\tRebalances", balancePolicies, true)
}

// RunBalanceAblation measures the three policies on n cost-skewed trains
// (deliberately imbalanced example costs, datasets.TrainsSkewed) —
// Ablation E.
func RunBalanceAblation(n, procs, folds int, skew float64, seed int64, cost cluster.CostModel, progress io.Writer) (*Ablation, error) {
	ds := datasets.TrainsSkewed(n, seed, skew)
	return sweepPolicies(balanceAblation(n, skew, procs), ds, procs, folds, seed, cost, balancePolicies, true, progress)
}

// Paired runs the sequential learner and p²-mdie (workers, width, seed +
// fold index) side by side on every fold of ds, split with seed — the loop
// behind Ablation D and ilp.CrossValidate. onFold, when non-nil, sees each
// fold's two runs as they finish.
func Paired(ds *datasets.Dataset, folds, workers, width int, seed int64, onFold func(fi int, seq, par Record)) (seq, par []Record, err error) {
	err = eachFold(ds, folds, seed, func(fi int, f xval.Fold) error {
		s, err := learnSeq(ds, f, cluster.CostModel{})
		if err != nil {
			return err
		}
		p, err := learnP2(ds, f, core.Config{Workers: workers, Width: width, Seed: seed + int64(fi)})
		if err != nil {
			return err
		}
		seq, par = append(seq, s), append(par, p)
		if onFold != nil {
			onFold(fi, s, p)
		}
		return nil
	})
	return seq, par, err
}

// noiseAblation is Ablation D's table: sequential and p²-mdie accuracies
// compared fold by fold at each label-noise rate.
func noiseAblation(procs int, noises []float64) *Ablation {
	return newAblation(fmt.Sprintf("Ablation D. Accuracy vs label noise (pyrimidines-style task, p=%d, width 10)", procs),
		"Noise\tSequential\tp2-mdie\tSignif@98%", noises, func(n float64) string { return fmt.Sprintf("%.2f", n) },
		func(r Row) string {
			mark := "no"
			if significant(r.P2, r.Seq) {
				mark = "YES"
			}
			return accCell(r.Seq) + "\t" + accCell(r.P2) + "\t" + mark
		})
}

// RunNoiseAblation stresses the paper's accuracy-preservation claim on
// noise-parameterised pyrimidines tasks of the given size — Ablation D.
func RunNoiseAblation(nPos, nNeg, procs, folds int, noises []float64, seed int64, progress io.Writer) (*Ablation, error) {
	if len(noises) == 0 {
		noises = []float64{0, 0.1, 0.2, 0.3}
	}
	ab := noiseAblation(procs, noises)
	logf := logger(progress)
	for i, noise := range noises {
		ds := datasets.PyrimidinesNoisy(nPos, nNeg, noise, seed)
		var err error
		ab.Rows[i].Seq, ab.Rows[i].P2, err = Paired(ds, orFive(folds), procs, 10, seed, func(fi int, seq, par Record) {
			logf("noise %.2f fold %d: seq %.2f par %.2f\n", noise, fi+1, seq.Acc, par.Acc)
		})
		if err != nil {
			return ab, err
		}
	}
	return ab, nil
}
