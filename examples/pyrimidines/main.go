// Pyrimidines: the paper's drug-design workload, evaluated with the full
// protocol of §5.2 — 5-fold cross-validation comparing sequential MDIE
// against p²-mdie, with the paired t-test at 98% confidence (the paper's
// Table 6 methodology on one dataset).
//
// Run with: go run ./examples/pyrimidines [-scale 0.15] [-workers 4] [-width 10]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/datasets"

	ilp "repro"
)

func main() {
	scale := flag.Float64("scale", 0.15, "dataset scale (1.0 = the paper's 848+/764-)")
	workers := flag.Int("workers", 4, "pipeline workers")
	width := flag.Int("width", 10, "pipeline width (0 = unlimited)")
	folds := flag.Int("folds", 5, "cross-validation folds")
	flag.Parse()

	n := func(x int) int { return int(float64(x) * *scale) }
	ds := datasets.PyrimidinesSized(n(848), n(764), 11)
	fmt.Println(ds)
	fmt.Printf("label noise: %.0f%% — predictive accuracy tops out well below 100%%, as in the paper\n\n", 100*ds.Noise)

	cv, err := ilp.CrossValidate(ds, *folds, *workers, *width, 11)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d-fold cross-validation:\n", cv.Folds)
	fmt.Printf("%-6s %12s %18s\n", "fold", "sequential", fmt.Sprintf("p2-mdie (p=%d)", *workers))
	for i := range cv.SeqAcc {
		fmt.Printf("%-6d %11.2f%% %13.2f%%\n", i+1, 100*cv.SeqAcc[i], 100*cv.ParAcc[i])
	}
	fmt.Printf("\nmean accuracy: sequential %.2f%%, parallel %.2f%%\n", 100*cv.MeanSeq(), 100*cv.MeanPar())
	fmt.Printf("paired t-test: %s\n", cv.TTest)
	if cv.TTest.Significant(0.98) {
		if cv.MeanPar() > cv.MeanSeq() {
			fmt.Println("=> significant at 98%: the parallel model is MORE accurate (the paper saw this on mesh)")
		} else {
			fmt.Println("=> significant at 98%: accuracy degraded — unexpected, see DESIGN.md §4")
		}
	} else {
		fmt.Println("=> no significant difference at 98% — learning quality is preserved (the paper's main claim)")
	}
}
