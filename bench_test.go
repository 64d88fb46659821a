// Benchmarks regenerating the paper's evaluation artifacts, one benchmark
// per table/figure (see DESIGN.md §4 for the experiment index). The full
// paper-scale protocol lives in cmd/ilpbench; these benches run compact
// configurations sized for `go test -bench`, reporting the paper's
// headline quantities (speedup, time, MBytes, epochs, accuracy) through
// b.ReportMetric so shapes are visible straight from the bench output.
package ilp

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/datasets"
	"repro/internal/harness"
	"repro/internal/parcov"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/xval"
)

// benchScale keeps bench iterations in the ~second range; cmd/ilpbench
// reproduces the tables at paper scale.
const benchScale = 0.12

func benchDatasets(b *testing.B) []*datasets.Dataset {
	b.Helper()
	dss, err := datasets.PaperScaled(benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return dss
}

// seqVirtualSeconds runs the sequential baseline on a training split and
// returns its simulated single-CPU seconds.
func seqVirtualSeconds(b *testing.B, ds *datasets.Dataset, fold xval.Fold) (float64, []Clause, float64) {
	b.Helper()
	ex := search.NewExamples(fold.TrainPos, fold.TrainNeg)
	res, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		b.Fatal(err)
	}
	secs := float64(res.Inferences) * cluster.DefaultCostModel.NsPerInference / 1e9
	acc := covering.Accuracy(ds.KB, res.Theory, fold.TestPos, fold.TestNeg, ds.Budget)
	return secs, res.Theory, acc
}

func trainFold(b *testing.B, ds *datasets.Dataset) xval.Fold {
	b.Helper()
	folds, err := xval.KFold(ds.Pos, ds.Neg, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	return folds[0]
}

func runParallel(b *testing.B, ds *datasets.Dataset, fold xval.Fold, p, w int) *core.Metrics {
	b.Helper()
	met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
		Workers: p, Width: w, Seed: 3,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		b.Fatal(err)
	}
	return met
}

// BenchmarkTable1_DatasetGeneration regenerates the three datasets at paper
// size (Table 1's characterisation is asserted, not just reported).
func BenchmarkTable1_DatasetGeneration(b *testing.B) {
	want := map[string][2]int{
		"carcinogenesis": {162, 136},
		"mesh":           {2840, 278},
		"pyrimidines":    {848, 764},
	}
	for i := 0; i < b.N; i++ {
		for _, ds := range datasets.Paper(int64(i + 1)) {
			name, pos, neg := ds.Characterize()
			if w := want[name]; pos != w[0] || neg != w[1] {
				b.Fatalf("%s: %d/%d, want %d/%d", name, pos, neg, w[0], w[1])
			}
		}
	}
}

// BenchmarkTable2_Speedup measures the speedup column structure: p ∈
// {2,4,8} at width 10 against the sequential baseline.
func BenchmarkTable2_Speedup(b *testing.B) {
	for _, ds := range benchDatasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			fold := trainFold(b, ds)
			for i := 0; i < b.N; i++ {
				seqSecs, _, _ := seqVirtualSeconds(b, ds, fold)
				for _, p := range []int{2, 4, 8} {
					met := runParallel(b, ds, fold, p, 10)
					b.ReportMetric(stats.Speedup(seqSecs, met.VirtualTime.Seconds()), fmt.Sprintf("speedup_p%d", p))
				}
			}
		})
	}
}

// BenchmarkTable3_ExecutionTime reports simulated execution seconds for
// p ∈ {1, 8} at width 10.
func BenchmarkTable3_ExecutionTime(b *testing.B) {
	for _, ds := range benchDatasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			fold := trainFold(b, ds)
			for i := 0; i < b.N; i++ {
				seqSecs, _, _ := seqVirtualSeconds(b, ds, fold)
				met := runParallel(b, ds, fold, 8, 10)
				b.ReportMetric(seqSecs, "sim_s_p1")
				b.ReportMetric(met.VirtualTime.Seconds(), "sim_s_p8")
			}
		})
	}
}

// BenchmarkTable4_Communication reports MBytes moved at p=8 for both
// widths; the unlimited pipeline must move at least as much as W=10.
func BenchmarkTable4_Communication(b *testing.B) {
	for _, ds := range benchDatasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			fold := trainFold(b, ds)
			for i := 0; i < b.N; i++ {
				unl := runParallel(b, ds, fold, 8, 0)
				lim := runParallel(b, ds, fold, 8, 10)
				// At bench scale a single fold can invert the ordering
				// when the two configurations settle on different epoch
				// counts; the 5-fold paper-scale runs indexed in DESIGN.md
				// §4 verify the strict shape. Here we flag only gross
				// inversions.
				if float64(lim.CommBytes) > 1.5*float64(unl.CommBytes) {
					b.Fatalf("width 10 moved far more bytes (%d) than nolimit (%d)", lim.CommBytes, unl.CommBytes)
				}
				b.ReportMetric(float64(unl.CommBytes)/1e6, "MB_nolimit")
				b.ReportMetric(float64(lim.CommBytes)/1e6, "MB_w10")
			}
		})
	}
}

// BenchmarkTable5_Epochs reports epoch counts for p ∈ {2, 8} at width 10;
// epochs must not grow with processors.
func BenchmarkTable5_Epochs(b *testing.B) {
	for _, ds := range benchDatasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			fold := trainFold(b, ds)
			for i := 0; i < b.N; i++ {
				m2 := runParallel(b, ds, fold, 2, 10)
				m8 := runParallel(b, ds, fold, 8, 10)
				if m8.Epochs > m2.Epochs {
					b.Fatalf("epochs grew with processors: p=2 %d, p=8 %d", m2.Epochs, m8.Epochs)
				}
				b.ReportMetric(float64(m2.Epochs), "epochs_p2")
				b.ReportMetric(float64(m8.Epochs), "epochs_p8")
			}
		})
	}
}

// BenchmarkTable6_Accuracy reports held-out accuracy of sequential vs
// parallel models on one fold.
func BenchmarkTable6_Accuracy(b *testing.B) {
	for _, ds := range benchDatasets(b) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			fold := trainFold(b, ds)
			for i := 0; i < b.N; i++ {
				_, _, seqAcc := seqVirtualSeconds(b, ds, fold)
				met := runParallel(b, ds, fold, 8, 10)
				parAcc := covering.Accuracy(ds.KB, met.Theory, fold.TestPos, fold.TestNeg, ds.Budget)
				b.ReportMetric(100*seqAcc, "acc_seq_pct")
				b.ReportMetric(100*parAcc, "acc_p8_pct")
			}
		})
	}
}

// BenchmarkFig3_PipelineTrace runs the three-worker pipeline of Figure 3
// and reports the stage hand-off count per epoch (p×(p−1) by construction).
func BenchmarkFig3_PipelineTrace(b *testing.B) {
	ds := datasets.CarcinogenesisSized(24, 20, 1)
	for i := 0; i < b.N; i++ {
		var handOffs atomic.Int64
		met, err := core.Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, core.Config{
			Workers: 3, Width: 5, Seed: 3,
			Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			Trace: func(e cluster.Event) {
				if e.Type == cluster.EvSend && e.Kind == 2 { // kindStage
					handOffs.Add(1)
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		perEpoch := float64(handOffs.Load()) / float64(met.Epochs)
		// Each epoch runs at most p(p−1) = 6 hand-offs; a worker whose
		// partition is exhausted short-circuits its pipeline straight to
		// the master, so later epochs can run fewer.
		if perEpoch <= 0 || perEpoch > 6 {
			b.Fatalf("hand-offs per epoch = %v, want in (0, 6]", perEpoch)
		}
		b.ReportMetric(perEpoch, "handoffs/epoch")
	}
}

// BenchmarkAblationWidth sweeps the pipeline width at p=8 (Ablation A).
func BenchmarkAblationWidth(b *testing.B) {
	ds := datasets.PyrimidinesSized(100, 90, 1)
	fold := trainFold(b, ds)
	for _, w := range []int{1, 10, 0} {
		w := w
		name := fmt.Sprintf("w=%d", w)
		if w == 0 {
			name = "w=nolimit"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				met := runParallel(b, ds, fold, 8, w)
				b.ReportMetric(float64(met.CommBytes)/1e6, "MB")
				b.ReportMetric(met.VirtualTime.Seconds(), "sim_s")
			}
		})
	}
}

// BenchmarkAblationParallelCoverage contrasts p²-mdie with the
// parallel-coverage-testing baseline at p=4 (Ablation B).
func BenchmarkAblationParallelCoverage(b *testing.B) {
	ds := datasets.PyrimidinesSized(60, 54, 1)
	ds.Search.NodesLimit = 200
	fold := trainFold(b, ds)
	b.Run("p2mdie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			met := runParallel(b, ds, fold, 4, 10)
			b.ReportMetric(met.VirtualTime.Seconds(), "sim_s")
			b.ReportMetric(float64(met.CommMessages), "msgs")
		}
	})
	b.Run("parcov", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			met, err := parcov.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, parcov.Config{
				Workers: 4, Seed: 3,
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(met.VirtualTime.Seconds(), "sim_s")
			b.ReportMetric(float64(met.CommMessages), "msgs")
		}
	})
}

// BenchmarkAblationRepartition contrasts fixed partitions (the paper's
// choice) against per-epoch repartitioning (the §4.1 alternative the paper
// declined for its communication cost) — Ablation C.
func BenchmarkAblationRepartition(b *testing.B) {
	ds := datasets.MeshSized(300, 30, 1)
	fold := trainFold(b, ds)
	for _, repart := range []bool{false, true} {
		repart := repart
		name := "fixed"
		if repart {
			name = "per-epoch"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				met, err := core.Learn(ds.KB, fold.TrainPos, fold.TrainNeg, ds.Modes, core.Config{
					Workers: 8, Width: 10, Seed: 3,
					Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
					RepartitionEachEpoch: repart,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(met.CommBytes)/1e6, "MB")
				b.ReportMetric(met.VirtualTime.Seconds(), "sim_s")
			}
		})
	}
}

// BenchmarkHarnessSweep runs the full multi-table harness end to end at a
// tiny scale — the integration cost of regenerating every table at once.
func BenchmarkHarnessSweep(b *testing.B) {
	ds, err := datasets.PaperScaled(0.06, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{
		Datasets: ds[:1],
		Procs:    []int{2, 4},
		Widths:   []int{harness.WidthUnlimited, 10},
		Folds:    2,
		Seed:     1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
