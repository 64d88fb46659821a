// Command ilpgen dumps one of the bundled synthetic datasets as a
// Prolog-subset text file: mode declarations, background knowledge and the
// labelled examples. The output round-trips through the dataset text
// format (readable by `p2mdie -file` and the ilp.LoadDataset API).
//
// Example:
//
//	ilpgen -dataset pyrimidines -scale 0.1 -seed 7 > pyrim.pl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/datasets"
)

func main() {
	var (
		dataset = flag.String("dataset", "trains", "dataset: trains, trains-gen, trains-skew, carcinogenesis, mesh, pyrimidines")
		scale   = flag.Float64("scale", 1.0, "scale factor for example counts")
		seed    = flag.Int64("seed", 1, "generator seed")
		nTrains = flag.Int("n", 200, "example count for the generated trains datasets (trains-gen, trains-skew)")
		skew    = flag.Float64("skew", 0, "fraction of deliberately heavy (12-17 car) trains: imbalanced example costs for the load-balancing experiments; >0 selects the trains-skew generator")
	)
	flag.Parse()

	if *skew < 0 || *skew > 1 {
		fmt.Fprintln(os.Stderr, "ilpgen: -skew must be in [0, 1]")
		os.Exit(1)
	}
	var ds *datasets.Dataset
	var err error
	switch {
	case *skew > 0 || *dataset == "trains-skew":
		s := *skew
		if s == 0 {
			s = 0.25
		}
		ds = datasets.TrainsSkewed(*nTrains, *seed, s)
	case *dataset == "trains-gen":
		ds = datasets.TrainsSized(*nTrains, *seed)
	default:
		ds, err = datasets.ByNameScaled(*dataset, *scale, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ilpgen:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%%%% generated by ilpgen (seed %d, scale %.2f)\n", *seed, *scale)
	w.WriteString(datasets.FormatText(ds))
}
