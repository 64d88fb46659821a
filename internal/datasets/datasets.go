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
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

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
// until both quotas are met. gen produces one candidate per call: it
// describes the candidate's background facts into facts and returns its
// example atom and true label. fill adds the facts to kb only when it keeps
// the candidate, so the KB holds facts exactly for the emitted examples.
func fill(r rnd, kb *solve.KB, nPos, nNeg int, noise float64, gen func(facts *factBatch) (logic.Term, bool)) (pos, neg []logic.Term) {
	var facts factBatch
	for len(pos) < nPos || len(neg) < nNeg {
		facts.reset()
		e, label := gen(&facts)
		if r.bool(noise) {
			label = !label
		}
		if label && len(pos) < nPos {
			pos = append(pos, e)
		} else if !label && len(neg) < nNeg {
			neg = append(neg, e)
		} else {
			continue
		}
		facts.addTo(kb)
	}
	return pos, neg
}

// factBatch is a batch of generated ground facts on their way into a KB. A
// generator describes each fact with add as it draws; addTo builds the terms
// and adds them in the order their printed text sorts, so the generators'
// maps and draw order never leak into the KB. Building waits for addTo and
// interns each fact's atoms left to right, then its functor — the order in
// which the facts' sorted text would parse. Symbol ids follow interning
// order and wire payloads carry them raw, so that order is part of the
// generated data.
type factBatch struct {
	text  []byte    // every fact's printed text, back to back: the sort keys
	args  []factArg // every fact's arguments, back to back
	facts []fact
}

// fact is one described fact: its functor, and the spans of its text and
// its arguments in the batch.
type fact struct {
	functor          string
	textFrom, textTo int
	argFrom, argTo   int
}

// factArg is one argument of a described fact: an atom, an integer, or a
// decimal printed with prec digits after the point.
type factArg struct {
	kind logic.Kind // Atom, Int or Float
	name string
	num  float64
	prec int
}

func atomArg(name string) factArg { return factArg{kind: logic.Atom, name: name} }

func intArg(v int) factArg { return factArg{kind: logic.Int, num: float64(v)} }

// decimalArg is v printed with prec digits after the point; the fact holds
// the float that text reads back as (3×0.05 is stored as 0.15), not v.
func decimalArg(v float64, prec int) factArg {
	return factArg{kind: logic.Float, num: v, prec: prec}
}

// add describes the fact functor(args...).
func (b *factBatch) add(functor string, args ...factArg) {
	f := fact{functor: functor, textFrom: len(b.text), argFrom: len(b.args)}
	b.text = append(b.text, functor...)
	b.text = append(b.text, '(')
	for i, a := range args {
		if i > 0 {
			b.text = append(b.text, ", "...)
		}
		switch a.kind {
		case logic.Atom:
			b.text = append(b.text, a.name...)
		case logic.Int:
			b.text = strconv.AppendInt(b.text, int64(a.num), 10)
		case logic.Float:
			from := len(b.text)
			b.text = strconv.AppendFloat(b.text, a.num, 'f', a.prec, 64)
			a.num, _ = strconv.ParseFloat(string(b.text[from:]), 64) // AppendFloat's text always parses
		}
		b.args = append(b.args, a)
	}
	b.text = append(b.text, ')')
	f.textTo, f.argTo = len(b.text), len(b.args)
	b.facts = append(b.facts, f)
}

// addTo builds the described facts and adds them to kb in the order of
// their text.
func (b *factBatch) addTo(kb *solve.KB) {
	slices.SortFunc(b.facts, func(x, y fact) int {
		return bytes.Compare(b.text[x.textFrom:x.textTo], b.text[y.textFrom:y.textTo])
	})
	terms := make([]logic.Term, len(b.args))
	for _, f := range b.facts {
		for i := f.argFrom; i < f.argTo; i++ {
			switch a := b.args[i]; a.kind {
			case logic.Atom:
				terms[i] = logic.A(a.name)
			case logic.Int:
				terms[i] = logic.IntTerm(int64(a.num))
			default:
				terms[i] = logic.FloatTerm(a.num)
			}
		}
		kb.Add(logic.Fact(logic.Comp(f.functor, terms[f.argFrom:f.argTo:f.argTo]...)))
	}
}

// reset empties the batch.
func (b *factBatch) reset() { b.text, b.args, b.facts = b.text[:0], b.args[:0], b.facts[:0] }
