// Package datasets bundles the learning tasks used by the paper's
// evaluation. The originals (carcinogenesis, mesh, pyrimidines) ship with
// Prolog ILP systems and are not redistributable here, so each is replaced
// by a seeded synthetic generator that preserves what the parallel
// algorithm is sensitive to:
//
//   - the example counts of Table 1 (they set evaluation cost and the size
//     of each worker's partition),
//   - the relational shape of the background knowledge (graph-structured
//     molecules for carcinogenesis, attribute tables behind a join for
//     pyrimidines, geometric/structural features for mesh),
//   - a hidden multi-rule target concept, and
//   - calibrated label noise, so rule precision and predictive accuracy
//     have paper-like headroom rather than being trivially 100%.
//
// Every generator is deterministic in its seed. The Michalski trains set is
// included as a tiny, noise-free quickstart task.
package datasets

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/solve"
)

// Dataset is a ready-to-learn task: background knowledge, labelled
// examples, language bias, and the per-dataset learner configuration used
// by the benchmark harness (the paper tuned its ILP settings per dataset,
// §5.2).
type Dataset struct {
	Name string
	KB   *solve.KB
	Pos  []logic.Term
	Neg  []logic.Term
	// Modes is the language bias.
	Modes *mode.Set
	// Search is the recommended search configuration.
	Search search.Settings
	// Bottom is the recommended saturation configuration.
	Bottom bottom.Options
	// Budget bounds individual proofs.
	Budget solve.Budget
	// TrueConcept documents the generator's hidden target theory.
	TrueConcept []logic.Clause
	// Noise is the label-flip rate the generator applied.
	Noise float64
}

// Characterize returns the Table 1 row for this dataset.
func (d *Dataset) Characterize() (name string, pos, neg int) {
	return d.Name, len(d.Pos), len(d.Neg)
}

func (d *Dataset) String() string {
	return fmt.Sprintf("%s: |E+|=%d |E-|=%d, %d BK clauses", d.Name, len(d.Pos), len(d.Neg), d.KB.Size())
}

// ByName returns a paper dataset (or a trains variant) by name at its
// default size.
func ByName(name string, seed int64) (*Dataset, error) {
	switch name {
	case "carcinogenesis":
		return Carcinogenesis(seed), nil
	case "mesh":
		return Mesh(seed), nil
	case "pyrimidines":
		return Pyrimidines(seed), nil
	case "trains":
		return Trains(), nil
	case "trains-gen":
		return TrainsSized(100, seed), nil
	case "trains-skew":
		// The cost-skewed elastic-scheduling workload: a quarter of the
		// trains are heavy, so a static random partition leaves stragglers.
		return TrainsSkewed(200, seed, 0.25), nil
	}
	return nil, fmt.Errorf("datasets: unknown dataset %q (have carcinogenesis, mesh, pyrimidines, trains, trains-gen, trains-skew)", name)
}

// Paper returns the three evaluation datasets at paper size (Table 1).
func Paper(seed int64) []*Dataset {
	return []*Dataset{Carcinogenesis(seed), Mesh(seed), Pyrimidines(seed)}
}

// PaperScaled returns the three evaluation datasets with example counts
// scaled by the given factor (≥ ~0.05), used by fast benchmark variants.
func PaperScaled(scale float64, seed int64) ([]*Dataset, error) {
	n, err := scaler(scale)
	if err != nil {
		return nil, err
	}
	return []*Dataset{
		CarcinogenesisSized(n(162), n(136), seed),
		MeshSized(n(2840), n(278), seed),
		PyrimidinesSized(n(848), n(764), seed),
	}, nil
}

// ByNameScaled is ByName with the example counts scaled by scale:
// int(count × scale) of ByName's counts, but at least 8. It refuses a scale
// that is not a positive finite number; trains has one size and ignores it.
func ByNameScaled(name string, scale float64, seed int64) (*Dataset, error) {
	n, err := scaler(scale)
	if err != nil {
		return nil, err
	}
	switch name {
	case "carcinogenesis":
		return CarcinogenesisSized(n(162), n(136), seed), nil
	case "mesh":
		return MeshSized(n(2840), n(278), seed), nil
	case "pyrimidines":
		return PyrimidinesSized(n(848), n(764), seed), nil
	case "trains-gen":
		return TrainsSized(n(100), seed), nil
	case "trains-skew":
		return TrainsSkewed(n(200), seed, 0.25), nil
	}
	return ByName(name, seed) // trains, or the unknown-dataset error
}

// scaler returns the example count of a scaled dataset as a function of its
// count at scale 1.
func scaler(scale float64) (func(count int) int, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("datasets: scale %v is not a positive finite number", scale)
	}
	return func(count int) int { return max(8, int(float64(count)*scale)) }, nil
}

// rnd is the package's generator with the draws the generators share.
type rnd struct{ *rng.Rand }

func newRng(seed int64) rnd { return rnd{rng.New(seed)} }

// bool reports true with probability p.
func (r rnd) bool(p float64) bool { return r.Float64() < p }

// pick returns a random element of xs.
func (r rnd) pick(xs []string) string { return xs[r.Intn(len(xs))] }

// weighted picks an index with the given weights.
func (r rnd) weighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// fill distributes generated items into pos/neg lists with label noise
// until both quotas are met. gen produces one candidate per call: its
// example atom, its true label, and a commit hook that persists the
// candidate's background facts; commit runs only when the candidate is
// kept, so the KB holds facts exactly for the emitted examples.
func fill(r rnd, nPos, nNeg int, noise float64, gen func() (logic.Term, bool, func())) (pos, neg []logic.Term) {
	for len(pos) < nPos || len(neg) < nNeg {
		e, label, commit := gen()
		if r.bool(noise) {
			label = !label
		}
		if label && len(pos) < nPos {
			pos = append(pos, e)
			commit()
		} else if !label && len(neg) < nNeg {
			neg = append(neg, e)
			commit()
		}
	}
	return pos, neg
}

// sortedFacts loads facts into the KB in deterministic (string) order — the
// generators build maps along the way, and map iteration order must never
// leak into the KB.
func sortedFacts(kb *solve.KB, facts []string) error {
	sort.Strings(facts)
	for _, f := range facts {
		c, err := logic.ParseClause(f + ".")
		if err != nil {
			return fmt.Errorf("datasets: bad generated fact %q: %w", f, err)
		}
		kb.Add(c)
	}
	return nil
}
