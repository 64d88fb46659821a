package core

import (
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/rng"
	"repro/internal/search"
)

func newTestMaster(minPos int, minPrec float64) *master {
	cfg := Config{
		Workers: 2,
		Search:  search.Settings{MinPos: minPos, MinPrec: minPrec},
	}.withDefaults()
	return &master{p: 2, cfg: cfg, metrics: &Metrics{}}
}

func entry(ruleSrc string, pos, neg int) bagEntry {
	rule := logic.MustParseClause(ruleSrc)
	return bagEntry{rule: rule, key: rule.Key(), pos: pos, neg: neg}
}

func TestFilterGoodDropsGloballyBadRules(t *testing.T) {
	ma := newTestMaster(2, 0.8)
	bag := []bagEntry{
		entry("p(X) :- q(X).", 10, 1), // precision 10/11 ≈ 0.91: keep
		entry("p(X) :- r(X).", 10, 5), // precision 0.67: drop
		entry("p(X) :- s(X).", 1, 0),  // below MinPos: drop
		entry("p(X) :- u(X).", 0, 0),  // covers nothing: drop
		entry("p(X) :- w(X).", 4, 1),  // precision 0.8: keep
	}
	out := ma.filterGood(bag)
	if len(out) != 2 {
		t.Fatalf("filterGood kept %d, want 2", len(out))
	}
	if out[0].rule.String() != "p(A) :- q(A)" || out[1].rule.String() != "p(A) :- w(A)" {
		t.Fatalf("wrong survivors: %v %v", out[0].rule, out[1].rule)
	}
}

func TestPickBestByGlobalScore(t *testing.T) {
	ma := newTestMaster(1, 0.1)
	bag := []bagEntry{
		entry("p(X) :- q(X).", 5, 2), // score 3
		entry("p(X) :- r(X).", 9, 1), // score 8: best
		entry("p(X) :- s(X).", 7, 0), // score 7
	}
	best, rest := ma.pickBest(bag)
	if best.rule.String() != "p(A) :- r(A)" {
		t.Fatalf("picked %s", best.rule)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d", len(rest))
	}
}

func TestPickBestTieBreaks(t *testing.T) {
	ma := newTestMaster(1, 0.1)
	// Same score (4): higher pos wins.
	bag := []bagEntry{
		entry("p(X) :- a(X).", 5, 1), // score 4, pos 5
		entry("p(X) :- b(X).", 6, 2), // score 4, pos 6: wins
	}
	best, _ := ma.pickBest(bag)
	if best.pos != 6 {
		t.Fatalf("tie-break by pos failed: %+v", best)
	}
	// Same score and pos: shorter body wins.
	bag = []bagEntry{
		entry("p(X) :- a(X), c(X).", 5, 1),
		entry("p(X) :- b(X).", 5, 1),
	}
	best, _ = ma.pickBest(bag)
	if len(best.rule.Body) != 1 {
		t.Fatalf("tie-break by length failed: %s", best.rule)
	}
	// Fully tied except key: lexicographic key order, deterministic.
	bag = []bagEntry{
		entry("p(X) :- zb(X).", 5, 1),
		entry("p(X) :- ab(X).", 5, 1),
	}
	best, _ = ma.pickBest(bag)
	if best.rule.String() != "p(A) :- ab(A)" {
		t.Fatalf("tie-break by key failed: %s", best.rule)
	}
}

// pickBestSortReference is the original implementation — a full stable
// sort per pick — kept here as the behavioural reference for the
// single-pass max that replaced it.
func pickBestSortReference(ma *master, bag []bagEntry) (bagEntry, []bagEntry) {
	sort.SliceStable(bag, func(i, j int) bool {
		a, b := bag[i], bag[j]
		sa := search.Score(a.pos, a.neg)
		sb := search.Score(b.pos, b.neg)
		if sa != sb {
			return sa > sb
		}
		if a.pos != b.pos {
			return a.pos > b.pos
		}
		if len(a.rule.Body) != len(b.rule.Body) {
			return len(a.rule.Body) < len(b.rule.Body)
		}
		return a.key < b.key
	})
	return bag[0], bag[1:]
}

// TestPickBestMatchesSortReference pins the consumption order: draining a
// bag with the single-pass pickBest yields exactly the pick sequence the
// sort-based implementation produced, on randomized bags with heavy
// score/coverage ties.
func TestPickBestMatchesSortReference(t *testing.T) {
	ma := newTestMaster(1, 0.1)
	r := rng.New(17)
	preds := []string{"a", "b", "c", "dd", "ee", "ff", "ggg", "hh", "iii", "jj"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(len(preds))
		var bag []bagEntry
		for i := 0; i < n; i++ {
			body := preds[i]
			src := "p(X) :- " + body + "(X)."
			if r.Intn(2) == 0 {
				src = "p(X) :- " + body + "(X), q(X)."
			}
			// Small ranges force frequent score and coverage ties, so the
			// deeper tie-breaks actually run.
			bag = append(bag, entry(src, 1+r.Intn(4), r.Intn(3)))
		}
		ref := make([]bagEntry, len(bag))
		copy(ref, bag)
		got := make([]bagEntry, len(bag))
		copy(got, bag)
		for len(ref) > 0 {
			var wantBest, gotBest bagEntry
			wantBest, ref = pickBestSortReference(ma, ref)
			gotBest, got = ma.pickBest(got)
			if wantBest.key != gotBest.key {
				t.Fatalf("trial %d: pick diverged: sort-reference %s, single-pass %s", trial, wantBest.key, gotBest.key)
			}
			if len(ref) != len(got) {
				t.Fatalf("trial %d: rest sizes diverged: %d vs %d", trial, len(ref), len(got))
			}
		}
	}
}
