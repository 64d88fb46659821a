package datasets

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/covering"
	"repro/internal/search"
)

func TestTable1Characterization(t *testing.T) {
	cases := []struct {
		ds       *Dataset
		pos, neg int
	}{
		{Carcinogenesis(1), 162, 136},
		{Mesh(1), 2840, 278},
		{Pyrimidines(1), 848, 764},
	}
	for _, c := range cases {
		name, p, n := c.ds.Characterize()
		if p != c.pos || n != c.neg {
			t.Errorf("%s: |E+|=%d |E-|=%d, want %d/%d", name, p, n, c.pos, c.neg)
		}
		if c.ds.KB.Size() == 0 {
			t.Errorf("%s: empty KB", name)
		}
	}
}

// TestSeedsDiffer checks that different seeds draw different datasets.
// That equal seeds draw identical ones, symbols and KB order included, is
// TestGeneratedDatasetsPinned's job.
func TestSeedsDiffer(t *testing.T) {
	gens := []func(int64) *Dataset{
		func(s int64) *Dataset { return CarcinogenesisSized(20, 16, s) },
		func(s int64) *Dataset { return MeshSized(40, 10, s) },
		func(s int64) *Dataset { return PyrimidinesSized(30, 24, s) },
	}
	for _, gen := range gens {
		a, c := gen(7), gen(8)
		if a.KB.Size() == c.KB.Size() && len(a.Pos) > 0 && a.Pos[0].String() == c.Pos[0].String() {
			// Sizes could coincide, but identical first example too is
			// suspicious enough to flag.
			same := true
			for i := range a.Pos {
				if a.Pos[i].String() != c.Pos[i].String() {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s: different seeds produced identical examples", a.Name)
			}
		}
	}
}

// The generator's hidden concept, evaluated by the SLD engine, must
// classify the generated data at roughly (1 − noise) accuracy: this pins
// generator and solver to the same semantics.
func TestTrueConceptAccuracy(t *testing.T) {
	cases := []struct {
		ds     *Dataset
		lo, hi float64
	}{
		{CarcinogenesisSized(162, 136, 3), 0.58, 0.85},
		{MeshSized(600, 60, 3), 0.72, 0.95},
		{PyrimidinesSized(300, 270, 3), 0.65, 0.92},
	}
	for _, c := range cases {
		acc := covering.Accuracy(c.ds.KB, c.ds.TrueConcept, c.ds.Pos, c.ds.Neg, c.ds.Budget)
		if acc < c.lo || acc > c.hi {
			t.Errorf("%s: true-concept accuracy %.3f outside [%.2f, %.2f]", c.ds.Name, acc, c.lo, c.hi)
		}
	}
}

func TestTrainsExactlyLearnable(t *testing.T) {
	ds := Trains()
	if len(ds.Pos) != 5 || len(ds.Neg) != 5 {
		t.Fatalf("trains: %d/%d examples", len(ds.Pos), len(ds.Neg))
	}
	// The intended theory classifies perfectly.
	if acc := covering.Accuracy(ds.KB, ds.TrueConcept, ds.Pos, ds.Neg, ds.Budget); acc != 1.0 {
		t.Fatalf("intended trains theory accuracy = %v, want 1.0", acc)
	}
	// And the learner recovers a perfect theory.
	ex := search.NewExamples(ds.Pos, ds.Neg)
	res, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := covering.Accuracy(ds.KB, res.Theory, ds.Pos, ds.Neg, ds.Budget); acc != 1.0 {
		var lines []string
		for _, c := range res.Theory {
			lines = append(lines, c.String())
		}
		t.Fatalf("learned trains accuracy = %v, theory:\n%s", acc, strings.Join(lines, "\n"))
	}
	if res.GroundFactsAdopted != 0 {
		t.Fatalf("trains needed %d fallback adoptions", res.GroundFactsAdopted)
	}
}

func TestSmallDatasetsLearnable(t *testing.T) {
	sized := []*Dataset{
		CarcinogenesisSized(40, 34, 5),
		MeshSized(80, 12, 5),
		PyrimidinesSized(60, 54, 5),
	}
	for _, ds := range sized {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			ex := search.NewExamples(ds.Pos, ds.Neg)
			res, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
				Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ex.NumPosAlive() != 0 {
				t.Fatalf("covering left %d positives", ex.NumPosAlive())
			}
			acc := covering.Accuracy(ds.KB, res.Theory, ds.Pos, ds.Neg, ds.Budget)
			// Training accuracy must beat the majority-class baseline.
			base := float64(len(ds.Pos)) / float64(len(ds.Pos)+len(ds.Neg))
			if base < 0.5 {
				base = 1 - base
			}
			if acc <= base {
				t.Fatalf("training accuracy %.3f does not beat baseline %.3f", acc, base)
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"carcinogenesis", "mesh", "pyrimidines", "trains"} {
		ds, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, ds.Name)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPaperScaled(t *testing.T) {
	scaled, err := PaperScaled(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaled) != 3 {
		t.Fatalf("PaperScaled returned %d datasets", len(scaled))
	}
	if got := len(scaled[0].Pos); got != 16 {
		t.Fatalf("scaled carcinogenesis pos = %d, want 16", got)
	}
	if got := len(scaled[1].Pos); got != 284 {
		t.Fatalf("scaled mesh pos = %d, want 284", got)
	}
	// Floor kicks in for tiny scales.
	tiny, err := PaperScaled(0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tiny {
		if len(ds.Pos) < 8 || len(ds.Neg) < 8 {
			t.Fatalf("%s: tiny scale went below floor: %d/%d", ds.Name, len(ds.Pos), len(ds.Neg))
		}
	}
}

// TestScalerSizes pins the example counts of the paper datasets
// (carcinogenesis, mesh, pyrimidines: positives, negatives) at three
// scales, checks that the datasets drawn are that size, and that both entry
// points refuse a scale that is not a positive finite number, naming it.
func TestScalerSizes(t *testing.T) {
	for _, c := range []struct {
		scale float64
		want  [6]int
	}{
		{0.05, [6]int{8, 8, 142, 13, 42, 38}},
		{0.25, [6]int{40, 34, 710, 69, 212, 191}},
		{1, [6]int{162, 136, 2840, 278, 848, 764}},
	} {
		n, err := scaler(c.scale)
		if err != nil {
			t.Fatalf("scale %v: %v", c.scale, err)
		}
		if got := [6]int{n(162), n(136), n(2840), n(278), n(848), n(764)}; got != c.want {
			t.Errorf("scale %v: sizes %v, want %v", c.scale, got, c.want)
		}
		dss, err := PaperScaled(c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, ds := range dss {
			one, err := ByNameScaled(ds.Name, c.scale, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*Dataset{ds, one} {
				if got := [2]int{len(d.Pos), len(d.Neg)}; got != [2]int(c.want[2*i:2*i+2]) {
					t.Errorf("scale %v: %s drawn with %v examples, want %v", c.scale, d.Name, got, c.want[2*i:2*i+2])
				}
			}
		}
	}
	for _, bad := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		name := fmt.Sprint(bad)
		if _, err := scaler(bad); err == nil || !strings.Contains(err.Error(), "scale "+name) {
			t.Errorf("scaler(%v): err = %v, want one naming the scale", bad, err)
		}
		if _, err := PaperScaled(bad, 1); err == nil {
			t.Errorf("PaperScaled(%v) accepted", bad)
		}
		if _, err := ByNameScaled("trains", bad, 1); err == nil {
			t.Errorf("ByNameScaled(trains, %v) accepted", bad)
		}
	}
}

func TestDatasetString(t *testing.T) {
	ds := Trains()
	s := ds.String()
	if !strings.Contains(s, "trains") || !strings.Contains(s, "|E+|=5") {
		t.Fatalf("String: %q", s)
	}
}
