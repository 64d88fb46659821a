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
	"strings"

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
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	gen := generator(*dataset, *skew)
	if err := checkFlags(set, *dataset, gen, *nTrains, *skew); err != nil {
		fmt.Fprintln(os.Stderr, "ilpgen:", err)
		os.Exit(1)
	}

	var ds *datasets.Dataset
	var err error
	switch gen {
	case "trains-skew":
		s := *skew
		if s == 0 {
			s = 0.25
		}
		ds = datasets.TrainsSkewed(*nTrains, *seed, s)
	case "trains-gen":
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
	if sized(gen) {
		fmt.Fprintf(w, "%%%% generated by ilpgen (seed %d, n %d)\n", *seed, *nTrains)
	} else {
		fmt.Fprintf(w, "%%%% generated by ilpgen (seed %d, scale %.2f)\n", *seed, *scale)
	}
	w.WriteString(datasets.FormatText(ds))
}

// generator names the generator the flags select: a -skew above 0 turns
// trains into trains-skew.
func generator(dataset string, skew float64) string {
	if dataset == "trains" && skew > 0 {
		return "trains-skew"
	}
	return dataset
}

// sized reports whether generator gen takes its example count from -n
// (and never reads -scale).
func sized(gen string) bool { return gen == "trains-gen" || gen == "trains-skew" }

// checkFlags refuses, before anything is generated, the flags in set (the
// names given on the command line) that generator gen never reads — a
// -scale the trains generators ignore, an -n the fixed datasets ignore, a
// -skew under another dataset than trains — and the values no generator
// accepts.
func checkFlags(set []string, dataset, gen string, n int, skew float64) error {
	var unread []string
	for _, name := range set {
		switch {
		case name == "scale" && sized(gen),
			name == "n" && !sized(gen),
			name == "skew" && dataset != "trains" && dataset != "trains-skew":
			unread = append(unread, "-"+name)
		}
	}
	switch {
	case len(unread) > 0:
		return fmt.Errorf("%s: not read by the %s generator", strings.Join(unread, ", "), gen)
	case skew < 0 || skew > 1:
		return fmt.Errorf("-skew must be in [0, 1]")
	case n < 1:
		return fmt.Errorf("-n %d: a generated dataset needs at least 1 example", n)
	}
	return nil
}
