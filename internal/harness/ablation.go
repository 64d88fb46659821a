package harness

import (
	"fmt"
	"io"
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

// WidthAblation sweeps the pipeline width beyond the paper's {nolimit, 10}
// at a fixed processor count, measuring time and communication — the
// design-choice study DESIGN.md calls Ablation A.
type WidthAblation struct {
	Dataset string
	Procs   int
	Widths  []int
	Time    map[int][]float64 // width → per-fold virtual seconds
	Comm    map[int][]float64 // width → per-fold MBytes
	SeqTime []float64
}

// RunWidthAblation measures the width sweep on one dataset.
func RunWidthAblation(ds *datasets.Dataset, procs int, widths []int, folds int, seed int64, cost cluster.CostModel, progress io.Writer) (*WidthAblation, error) {
	if len(widths) == 0 {
		widths = []int{1, 5, 10, 50, WidthUnlimited}
	}
	if folds <= 0 {
		folds = 5
	}
	ab := &WidthAblation{
		Dataset: ds.Name, Procs: procs, Widths: widths,
		Time: map[int][]float64{}, Comm: map[int][]float64{},
	}
	kfolds, err := xval.KFold(ds.Pos, ds.Neg, folds, seed)
	if err != nil {
		return nil, err
	}
	for fi, fold := range kfolds {
		ex := search.NewExamples(fold.TrainPos, fold.TrainNeg)
		seq, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
			Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		})
		if err != nil {
			return nil, err
		}
		ab.SeqTime = append(ab.SeqTime, float64(seq.Inferences)*modelNsPerInference(cost)/1e9)
		for _, w := range widths {
			met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
				Workers: procs, Width: w, Seed: seed + int64(fi),
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget, Cost: cost,
			})
			if err != nil {
				return nil, err
			}
			ab.Time[w] = append(ab.Time[w], met.VirtualTime.Seconds())
			ab.Comm[w] = append(ab.Comm[w], float64(met.CommBytes)/1e6)
			if progress != nil {
				fmt.Fprintf(progress, "%s fold %d w=%s: %.2fs, %.2f MB\n", ds.Name, fi+1, widthLabel(w), met.VirtualTime.Seconds(), float64(met.CommBytes)/1e6)
			}
		}
	}
	return ab, nil
}

// Render prints the width ablation table.
func (ab *WidthAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation A. Pipeline width sweep on %s at p=%d\n", ab.Dataset, ab.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Width\tTime (s)\tSpeedup\tComm (MB)")
	seqMean := stats.Mean(ab.SeqTime)
	for _, width := range ab.Widths {
		tm := stats.Mean(ab.Time[width])
		fmt.Fprintf(tw, "%s\t%.1f\t%.2f\t%.2f\n", widthLabel(width), tm, stats.Speedup(seqMean, tm), stats.Mean(ab.Comm[width]))
	}
	tw.Flush()
}

// RepartitionAblation quantifies the cost of the §4.1 alternative the
// paper declined: re-balancing uncovered positives across workers before
// every epoch — Ablation C. The expected outcome (and the paper's stated
// reason to skip it): similar learning, markedly more communication.
type RepartitionAblation struct {
	Dataset string
	Procs   int
	Base    map[string][]float64 // "time"/"comm"/"epochs" per fold
	Repart  map[string][]float64
}

// RunRepartitionAblation measures p²-mdie with and without per-epoch
// repartitioning at width 10.
func RunRepartitionAblation(ds *datasets.Dataset, procs, folds int, seed int64, cost cluster.CostModel, progress io.Writer) (*RepartitionAblation, error) {
	if folds <= 0 {
		folds = 5
	}
	ab := &RepartitionAblation{
		Dataset: ds.Name, Procs: procs,
		Base:   map[string][]float64{},
		Repart: map[string][]float64{},
	}
	kfolds, err := xval.KFold(ds.Pos, ds.Neg, folds, seed)
	if err != nil {
		return nil, err
	}
	for fi, fold := range kfolds {
		for _, repart := range []bool{false, true} {
			met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
				Workers: procs, Width: 10, Seed: seed + int64(fi),
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget, Cost: cost,
				RepartitionEachEpoch: repart,
			})
			if err != nil {
				return nil, err
			}
			dst := ab.Base
			label := "fixed"
			if repart {
				dst = ab.Repart
				label = "repartitioned"
			}
			dst["time"] = append(dst["time"], met.VirtualTime.Seconds())
			dst["comm"] = append(dst["comm"], float64(met.CommBytes)/1e6)
			dst["epochs"] = append(dst["epochs"], float64(met.Epochs))
			if progress != nil {
				fmt.Fprintf(progress, "%s fold %d (%s): %.2fs, %.2f MB, %d epochs\n",
					ds.Name, fi+1, label, met.VirtualTime.Seconds(), float64(met.CommBytes)/1e6, met.Epochs)
			}
		}
	}
	return ab, nil
}

// Render prints the repartitioning comparison.
func (ab *RepartitionAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation C. Per-epoch repartitioning on %s at p=%d (width 10)\n", ab.Dataset, ab.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Partitioning\tTime (s)\tComm (MB)\tEpochs")
	fmt.Fprintf(tw, "fixed (paper)\t%.2f\t%.2f\t%.1f\n",
		stats.Mean(ab.Base["time"]), stats.Mean(ab.Base["comm"]), stats.Mean(ab.Base["epochs"]))
	fmt.Fprintf(tw, "per-epoch\t%.2f\t%.2f\t%.1f\n",
		stats.Mean(ab.Repart["time"]), stats.Mean(ab.Repart["comm"]), stats.Mean(ab.Repart["epochs"]))
	tw.Flush()
}

// NoiseAblation stresses the paper's accuracy-preservation claim across
// label-noise levels — Ablation D: at each noise rate, sequential and
// p²-mdie accuracies are compared fold-by-fold.
type NoiseAblation struct {
	Procs  int
	Noises []float64
	SeqAcc map[float64][]float64
	ParAcc map[float64][]float64
}

// RunNoiseAblation runs the sweep on noise-parameterised pyrimidines
// tasks of the given size.
func RunNoiseAblation(nPos, nNeg, procs, folds int, noises []float64, seed int64, progress io.Writer) (*NoiseAblation, error) {
	if len(noises) == 0 {
		noises = []float64{0, 0.1, 0.2, 0.3}
	}
	if folds <= 0 {
		folds = 5
	}
	ab := &NoiseAblation{
		Procs: procs, Noises: noises,
		SeqAcc: map[float64][]float64{}, ParAcc: map[float64][]float64{},
	}
	for _, noise := range noises {
		ds := datasets.PyrimidinesNoisy(nPos, nNeg, noise, seed)
		kfolds, err := xval.KFold(ds.Pos, ds.Neg, folds, seed)
		if err != nil {
			return nil, err
		}
		for fi, fold := range kfolds {
			ex := search.NewExamples(fold.TrainPos, fold.TrainNeg)
			seq, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			})
			if err != nil {
				return nil, err
			}
			ab.SeqAcc[noise] = append(ab.SeqAcc[noise], covering.Accuracy(ds.KB, seq.Theory, fold.TestPos, fold.TestNeg, ds.Budget))
			met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
				Workers: procs, Width: 10, Seed: seed + int64(fi),
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			})
			if err != nil {
				return nil, err
			}
			ab.ParAcc[noise] = append(ab.ParAcc[noise], covering.Accuracy(ds.KB, met.Theory, fold.TestPos, fold.TestNeg, ds.Budget))
			if progress != nil {
				fmt.Fprintf(progress, "noise %.2f fold %d: seq %.2f par %.2f\n",
					noise, fi+1, ab.SeqAcc[noise][fi], ab.ParAcc[noise][fi])
			}
		}
	}
	return ab, nil
}

// Render prints the noise sweep with significance markers.
func (ab *NoiseAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation D. Accuracy vs label noise (pyrimidines-style task, p=%d, width 10)\n", ab.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Noise\tSequential\tp2-mdie\tSignif@98%")
	for _, noise := range ab.Noises {
		mark := "no"
		if res, err := stats.PairedTTest(ab.ParAcc[noise], ab.SeqAcc[noise]); err == nil && res.Significant(0.98) {
			mark = "YES"
		}
		fmt.Fprintf(tw, "%.2f\t%.2f (%.2f)\t%.2f (%.2f)\t%s\n",
			noise,
			100*stats.Mean(ab.SeqAcc[noise]), 100*stats.StdDev(ab.SeqAcc[noise]),
			100*stats.Mean(ab.ParAcc[noise]), 100*stats.StdDev(ab.ParAcc[noise]),
			mark)
	}
	tw.Flush()
}

// ParcovAblation compares p²-mdie against the related-work baseline that
// only parallelises coverage tests (§6) — Ablation B.
type ParcovAblation struct {
	Dataset string
	Procs   []int
	SeqTime []float64
	P2Time  map[int][]float64 // procs → per-fold virtual seconds
	PCTime  map[int][]float64
	P2Msgs  map[int][]float64
	PCMsgs  map[int][]float64
}

// RunParcovAblation measures both parallelisations on one dataset.
func RunParcovAblation(ds *datasets.Dataset, procs []int, folds int, seed int64, cost cluster.CostModel, progress io.Writer) (*ParcovAblation, error) {
	if len(procs) == 0 {
		procs = []int{2, 4, 8}
	}
	if folds <= 0 {
		folds = 5
	}
	ab := &ParcovAblation{
		Dataset: ds.Name, Procs: procs,
		P2Time: map[int][]float64{}, PCTime: map[int][]float64{},
		P2Msgs: map[int][]float64{}, PCMsgs: map[int][]float64{},
	}
	kfolds, err := xval.KFold(ds.Pos, ds.Neg, folds, seed)
	if err != nil {
		return nil, err
	}
	for fi, fold := range kfolds {
		ex := search.NewExamples(fold.TrainPos, fold.TrainNeg)
		seq, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
			Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		})
		if err != nil {
			return nil, err
		}
		ab.SeqTime = append(ab.SeqTime, float64(seq.Inferences)*modelNsPerInference(cost)/1e9)
		for _, p := range procs {
			met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
				Workers: p, Width: 10, Seed: seed + int64(fi),
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget, Cost: cost,
			})
			if err != nil {
				return nil, err
			}
			ab.P2Time[p] = append(ab.P2Time[p], met.VirtualTime.Seconds())
			ab.P2Msgs[p] = append(ab.P2Msgs[p], float64(met.CommMessages))
			pc, err := parcov.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, parcov.Config{
				Workers: p, Seed: seed + int64(fi),
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget, Cost: cost,
			})
			if err != nil {
				return nil, err
			}
			ab.PCTime[p] = append(ab.PCTime[p], pc.VirtualTime.Seconds())
			ab.PCMsgs[p] = append(ab.PCMsgs[p], float64(pc.CommMessages))
			if progress != nil {
				fmt.Fprintf(progress, "%s fold %d p=%d: p2=%.2fs parcov=%.2fs\n", ds.Name, fi+1, p,
					met.VirtualTime.Seconds(), pc.VirtualTime.Seconds())
			}
		}
	}
	return ab, nil
}

// Render prints the comparison table.
func (ab *ParcovAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation B. p2-mdie vs parallel coverage testing on %s (width 10)\n", ab.Dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tp2 speedup\tparcov speedup\tp2 msgs\tparcov msgs")
	seqMean := stats.Mean(ab.SeqTime)
	for _, p := range ab.Procs {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.0f\t%.0f\n", p,
			stats.Speedup(seqMean, stats.Mean(ab.P2Time[p])),
			stats.Speedup(seqMean, stats.Mean(ab.PCTime[p])),
			stats.Mean(ab.P2Msgs[p]),
			stats.Mean(ab.PCMsgs[p]))
	}
	tw.Flush()
}

// BalanceAblation quantifies elastic scheduling's throughput-aware
// rebalancing on the cost-skewed trains workload (deliberately imbalanced
// example costs, datasets.TrainsSkewed) — Ablation E. Three partition
// policies at the same width: the paper's static random partition, the
// §4.1 even per-epoch repartition, and sched.Balancer's proportional
// redeal (Config.Balance). The headline number is simulated makespan; the
// PERF.md before/after row comes from this table.
type BalanceAblation struct {
	N        int
	Skew     float64
	Procs    int
	Policies []string
	Rows     map[string]map[string][]float64 // policy → time/comm/epochs/rebalances per fold
}

// RunBalanceAblation measures the three policies on n skewed trains.
func RunBalanceAblation(n, procs, folds int, skew float64, seed int64, cost cluster.CostModel, progress io.Writer) (*BalanceAblation, error) {
	if folds <= 0 {
		folds = 5
	}
	ds := datasets.TrainsSkewed(n, seed, skew)
	ab := &BalanceAblation{
		N: n, Skew: skew, Procs: procs,
		Policies: []string{"static", "repartition", "balance"},
		Rows:     map[string]map[string][]float64{},
	}
	for _, p := range ab.Policies {
		ab.Rows[p] = map[string][]float64{}
	}
	kfolds, err := xval.KFold(ds.Pos, ds.Neg, folds, seed)
	if err != nil {
		return nil, err
	}
	for fi, fold := range kfolds {
		for _, policy := range ab.Policies {
			cfg := core.Config{
				Workers: procs, Width: 10, Seed: seed + int64(fi),
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget, Cost: cost,
				RepartitionEachEpoch: policy == "repartition",
				Balance:              policy == "balance",
			}
			met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, cfg)
			if err != nil {
				return nil, err
			}
			row := ab.Rows[policy]
			row["time"] = append(row["time"], met.VirtualTime.Seconds())
			row["comm"] = append(row["comm"], float64(met.CommBytes)/1e6)
			row["epochs"] = append(row["epochs"], float64(met.Epochs))
			row["rebalances"] = append(row["rebalances"], float64(met.Rebalances))
			if progress != nil {
				fmt.Fprintf(progress, "%s fold %d (%s): %.2fs, %.2f MB, %d epochs, %d rebalances\n",
					ds.Name, fi+1, policy, met.VirtualTime.Seconds(), float64(met.CommBytes)/1e6, met.Epochs, met.Rebalances)
			}
		}
	}
	return ab, nil
}

// Render prints the balance comparison.
func (ab *BalanceAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation E. Load balancing on trains-skew (n=%d, skew=%.2f, p=%d, width 10)\n", ab.N, ab.Skew, ab.Procs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Policy\tTime (s)\tComm (MB)\tEpochs\tRebalances")
	labels := map[string]string{
		"static":      "static (paper)",
		"repartition": "even per-epoch",
		"balance":     "throughput-aware",
	}
	for _, p := range ab.Policies {
		row := ab.Rows[p]
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.1f\t%.1f\n",
			labels[p], stats.Mean(row["time"]), stats.Mean(row["comm"]),
			stats.Mean(row["epochs"]), stats.Mean(row["rebalances"]))
	}
	tw.Flush()
}
