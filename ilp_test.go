package ilp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestDatasetByName(t *testing.T) {
	ds, err := DatasetByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "trains" || len(ds.Pos) != 5 {
		t.Fatalf("trains: %+v", ds)
	}
	if _, err := DatasetByName("bogus", 1); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestLearnSequentialOnTrains(t *testing.T) {
	ds, err := DatasetByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LearnSequential(ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(ds, res.Theory, ds.Pos, ds.Neg); acc != 1.0 {
		t.Fatalf("trains accuracy = %v\n%s", acc, TheoryString(res.Theory))
	}
}

func TestLearnParallelOnTrains(t *testing.T) {
	ds, err := DatasetByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	met, err := LearnParallel(ds, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(ds, met.Theory, ds.Pos, ds.Neg); acc < 0.9 {
		t.Fatalf("parallel trains accuracy = %v\n%s", acc, TheoryString(met.Theory))
	}
	if met.Epochs < 1 || met.CommBytes <= 0 {
		t.Fatalf("metrics: %+v", met)
	}
}

// TestLearnParallelCoverageRefusesUnusedOptions: the coverage baseline reads
// only Seed and Cost, so every other option must be refused by name rather
// than silently ignored.
func TestLearnParallelCoverageRefusesUnusedOptions(t *testing.T) {
	ds, err := DatasetByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string // "" = accepted
		opts  ParallelOptions
	}{
		{"", ParallelOptions{Seed: 3, Cost: DefaultCostModel}},
		{"Trace", ParallelOptions{Trace: func(cluster.Event) {}}},
		{"Balance", ParallelOptions{Balance: true}},
		{"Recover", ParallelOptions{Recover: true}},
		{"RecvTimeout", ParallelOptions{RecvTimeout: time.Second}},
		{"CheckpointDir", ParallelOptions{CheckpointDir: t.TempDir()}},
		{"PublishDir", ParallelOptions{PublishDir: t.TempDir()}},
	} {
		met, err := LearnParallelCoverage(ds, 2, tc.opts)
		if tc.field == "" {
			if err != nil || len(met.Theory) == 0 {
				t.Errorf("Seed and Cost: got %v, %v; want a learned theory", met, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "ParallelOptions."+tc.field) {
			t.Errorf("%s set: got error %v, want one naming ParallelOptions.%s", tc.field, err, tc.field)
		}
	}
}

func TestDefineCustomProblem(t *testing.T) {
	ds, err := Define("family",
		`
		parent(ann, bob). parent(ann, carol).
		parent(tom, bob). parent(tom, carol).
		parent(bob, dave). parent(carol, eve).
		female(ann). female(carol). female(eve).
		male(tom). male(bob). male(dave).
		`,
		`
		modeh(1, mother(+person, +person)).
		modeb(1, parent(+person, +person)).
		modeb(1, female(+person)).
		modeb(1, male(+person)).
		`,
		[]string{"mother(ann, bob)", "mother(ann, carol)", "mother(carol, eve)"},
		[]string{"mother(tom, bob)", "mother(bob, dave)", "mother(eve, ann)"},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds.Search.MinPos = 2
	ds.Search.MinPrec = 0.99
	res, err := LearnSequential(ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(ds, res.Theory, ds.Pos, ds.Neg); acc != 1.0 {
		t.Fatalf("family accuracy = %v\n%s", acc, TheoryString(res.Theory))
	}
	// The classic definition must be found: parent + female.
	th := TheoryString(res.Theory)
	if !strings.Contains(th, "parent") || !strings.Contains(th, "female") {
		t.Fatalf("unexpected theory:\n%s", th)
	}
}

func TestDefineValidation(t *testing.T) {
	if _, err := Define("x", "p(a.", "modeh(1, t(+a)). modeb(1, p(+a)).", []string{"t(a)"}, nil); err == nil {
		t.Fatal("bad background accepted")
	}
	if _, err := Define("x", "p(a).", "nonsense", []string{"t(a)"}, nil); err == nil {
		t.Fatal("bad modes accepted")
	}
	if _, err := Define("x", "p(a).", "modeh(1, t(+a)). modeb(1, p(+a)).", []string{"t(X)"}, nil); err == nil {
		t.Fatal("non-ground example accepted")
	}
	if _, err := Define("x", "p(a).", "modeh(1, t(+a)). modeb(1, p(+a)).", nil, nil); err == nil {
		t.Fatal("no positives accepted")
	}
}

func TestCovers(t *testing.T) {
	ds, err := DatasetByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	theory, err := ParseTheory("eastbound(T) :- has_car(T, C), car_len(C, short), closed(C).")
	if err != nil {
		t.Fatal(err)
	}
	if !Covers(ds, theory, ds.Pos[0]) {
		t.Fatal("intended theory misses a positive")
	}
	if Covers(ds, theory, ds.Neg[0]) {
		t.Fatal("intended theory covers a negative")
	}
}

func TestCrossValidate(t *testing.T) {
	ds, err := DatasetByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	// trains has only 5 positives; 2 folds is the most we can ask of it
	// while keeping both classes in each split.
	cv, err := CrossValidate(ds, 2, 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Folds != 2 || len(cv.SeqAcc) != 2 || len(cv.ParAcc) != 2 {
		t.Fatalf("cv: %+v", cv)
	}
	if cv.MeanSeq() < 0 || cv.MeanSeq() > 1 || cv.MeanPar() < 0 || cv.MeanPar() > 1 {
		t.Fatalf("accuracies out of range: %+v", cv)
	}
}

func TestParseTheoryError(t *testing.T) {
	if _, err := ParseTheory("p(a) :-"); err == nil {
		t.Fatal("bad theory accepted")
	}
}
