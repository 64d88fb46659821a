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
// example atom and true label. fill keeps the facts only when it keeps the
// candidate, and adds all it kept to kb at the end, so the KB holds facts
// exactly for the emitted examples. The names facts holds when fill starts
// are the generator's vocabulary, kept from candidate to candidate.
func fill(r rnd, kb *solve.KB, facts *factBatch, nPos, nNeg int, noise float64, gen func(facts *factBatch) (logic.Term, bool)) (pos, neg []logic.Term) {
	facts.fix()
	facts.exArgs = make([]logic.Term, nPos+nNeg)
	pos, neg = make([]logic.Term, 0, nPos), make([]logic.Term, 0, nNeg)
	for len(pos) < nPos || len(neg) < nNeg {
		facts.reset()
		e, label := gen(facts)
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
		facts.more = nPos + nNeg - len(pos) - len(neg)
		facts.keep()
	}
	facts.addTo(kb)
	return pos, neg
}

// factBatch is a batch of generated ground facts on their way into a KB. A
// generator describes each fact with add as it draws; keep builds the
// described facts and holds them, in the order their printed text sorts, so
// the generators' maps and draw order never leak into the KB; addTo adds
// every held fact to a KB at once.
//
// Building interns each fact's atoms left to right, then its functor — the
// order in which the facts' sorted text would parse — but interns a name
// entry only at its first use and keeps the symbol with the entry. Interning
// a known name changes nothing, so the symbol ids are the ones interning
// every use would give. Symbol ids follow interning order and wire payloads
// carry them raw, so that order is part of the generated data.
type factBatch struct {
	// names is the name table: every atom and functor the described facts
	// use, their bytes back to back in nameText. The first fixed entries are
	// the vocabulary, kept by reset.
	names    []batchName
	nameText []byte
	fixed    int
	args     []factArg // every fact's arguments, back to back
	facts    []fact

	text     []byte // the sort keys of the facts being kept
	decs     map[decKey]int32
	decimals []decimal // by decs: each decimal's text and value
	decText  []byte

	// heads holds the kept facts until addTo. Their arguments come from
	// free, the rest of a block sized to what the candidates still to keep
	// (more) need at the average so far (kept candidates, keptArgs and
	// keptFacts arguments and facts).
	heads                     []logic.Term
	free                      []logic.Term
	more                      int
	kept, keptArgs, keptFacts int
	// exArgs are the arguments of the examples fill still has to keep, one
	// each: a candidate's example takes the first, keep moves past it.
	exArgs []logic.Term
}

// batchName is one entry of the name table: its text in nameText and its
// symbol, or unresolved until it is interned.
type batchName struct {
	from, to int32
	sym      logic.Symbol
}

const unresolved logic.Symbol = -1

// fact is one described fact: its functor's name entry, and the spans of its
// text and its arguments in the batch.
type fact struct {
	functor          int32
	textFrom, textTo int32
	argFrom, argTo   int32
}

// factArg is one argument of a described fact: an atom (an entry of the
// name table), an integer, or a decimal printed with prec digits after the
// point.
type factArg struct {
	kind logic.Kind // Atom, Int or Float
	prec int8
	name int32
	num  float64
}

// decKey is a decimal as the batch formats it: the float's bits and the
// digits after the point. -0.0 and 0.0 differ ("-0.00", "0.00").
type decKey struct {
	bits uint64
	prec int8
}

// decimal is a formatted decimal: its text in decText and the float that
// text reads back as.
type decimal struct {
	from, to int32
	val      float64
}

func intArg(v int) factArg { return factArg{kind: logic.Int, num: float64(v)} }

// decimalArg is v printed with prec digits after the point; the fact holds
// the float that text reads back as (3×0.05 is stored as 0.15), not v.
func decimalArg(v float64, prec int) factArg {
	return factArg{kind: logic.Float, num: v, prec: int8(prec)}
}

// atom enters name in the name table and returns it as an argument.
func (b *factBatch) atom(name string) factArg {
	from := len(b.nameText)
	b.nameText = append(b.nameText, name...)
	return b.enter(from)
}

// atoms is atom for each of names.
func (b *factBatch) atoms(names ...string) []factArg {
	out := make([]factArg, len(names))
	for i, n := range names {
		out[i] = b.atom(n)
	}
	return out
}

// numbered enters the name prefix followed by n in decimal ("d12").
func (b *factBatch) numbered(prefix string, n int) factArg {
	from := len(b.nameText)
	b.nameText = strconv.AppendInt(append(b.nameText, prefix...), int64(n), 10)
	return b.enter(from)
}

// suffixed enters the name of the atom base followed by infix and n in
// decimal ("d12_a3").
func (b *factBatch) suffixed(base factArg, infix string, n int) factArg {
	e, from := b.names[base.name], len(b.nameText)
	b.nameText = append(b.nameText, b.nameText[e.from:e.to]...)
	b.nameText = strconv.AppendInt(append(b.nameText, infix...), int64(n), 10)
	return b.enter(from)
}

// enter adds nameText[from:] to the name table.
func (b *factBatch) enter(from int) factArg {
	b.names = append(b.names, batchName{from: int32(from), to: int32(len(b.nameText)), sym: unresolved})
	return factArg{kind: logic.Atom, name: int32(len(b.names) - 1)}
}

// sym returns the symbol of name entry i, interning it at its first use.
func (b *factBatch) sym(i int32) logic.Symbol {
	e := &b.names[i]
	if e.sym == unresolved {
		e.sym = logic.InternBytes(b.nameText[e.from:e.to])
	}
	return e.sym
}

// term returns the atom a as a term, interning its name now if it was not.
func (b *factBatch) term(a factArg) logic.Term {
	return logic.Term{Kind: logic.Atom, Sym: b.sym(a.name)}
}

// example returns the example functor(a). It interns a's name, then the
// functor, as logic.Comp(functor, logic.A(name)) would; inside fill its
// argument is the next of exArgs, so a rejected candidate's example costs
// nothing.
func (b *factBatch) example(functor, a factArg) logic.Term {
	arg := b.term(a)
	f := b.sym(functor.name)
	if len(b.exArgs) == 0 {
		return logic.CompSym(f, arg)
	}
	b.exArgs[0] = arg
	return logic.CompSym(f, b.exArgs[:1:1]...)
}

// add describes the fact functor(args...); functor is an atom of the batch.
func (b *factBatch) add(functor factArg, args ...factArg) {
	b.facts = append(b.facts, fact{functor: functor.name, argFrom: int32(len(b.args)), argTo: int32(len(b.args) + len(args))})
	b.args = append(b.args, args...)
}

// decimal returns the text and value of v printed with prec digits after
// the point, formatting each distinct decKey once.
func (b *factBatch) decimal(v float64, prec int8) decimal {
	k := decKey{math.Float64bits(v), prec}
	if i, ok := b.decs[k]; ok {
		return b.decimals[i]
	}
	from := len(b.decText)
	b.decText = strconv.AppendFloat(b.decText, v, 'f', int(prec), 64)
	d := decimal{from: int32(from), to: int32(len(b.decText))}
	d.val, _ = strconv.ParseFloat(string(b.decText[from:]), 64) // AppendFloat's text always parses
	if b.decs == nil {
		b.decs = make(map[decKey]int32)
	}
	b.decs[k] = int32(len(b.decimals))
	b.decimals = append(b.decimals, d)
	return d
}

// keep builds the described facts, in the order of their text, holds them
// for addTo and empties the batch.
func (b *factBatch) keep() {
	b.text = b.text[:0]
	for i := range b.facts {
		f := &b.facts[i]
		f.textFrom = int32(len(b.text))
		e := b.names[f.functor]
		b.text = append(append(b.text, b.nameText[e.from:e.to]...), '(')
		for j := f.argFrom; j < f.argTo; j++ {
			if j > f.argFrom {
				b.text = append(b.text, ", "...)
			}
			switch a := &b.args[j]; a.kind {
			case logic.Atom:
				e := b.names[a.name]
				b.text = append(b.text, b.nameText[e.from:e.to]...)
			case logic.Int:
				b.text = strconv.AppendInt(b.text, int64(a.num), 10)
			case logic.Float:
				d := b.decimal(a.num, a.prec)
				b.text = append(b.text, b.decText[d.from:d.to]...)
				a.num = d.val
			}
		}
		b.text = append(b.text, ')')
		f.textTo = int32(len(b.text))
	}
	slices.SortFunc(b.facts, func(x, y fact) int {
		return bytes.Compare(b.text[x.textFrom:x.textTo], b.text[y.textFrom:y.textTo])
	})
	if len(b.facts) > cap(b.heads)-len(b.heads) {
		b.heads = slices.Grow(b.heads, len(b.facts)+b.expected(b.keptFacts, len(b.facts)))
	}
	terms := b.block(len(b.args))
	for _, f := range b.facts {
		args := terms[f.argFrom:f.argTo:f.argTo]
		for i := range args {
			switch a := &b.args[int(f.argFrom)+i]; a.kind {
			case logic.Atom:
				args[i] = b.term(*a)
			case logic.Int:
				args[i] = logic.IntTerm(int64(a.num))
			default:
				args[i] = logic.FloatTerm(a.num)
			}
		}
		b.heads = append(b.heads, logic.CompSym(b.sym(f.functor), args...))
	}
	if len(b.exArgs) > 0 {
		b.exArgs = b.exArgs[1:]
	}
	b.kept++
	b.keptArgs += len(b.args)
	b.keptFacts += len(b.facts)
	b.reset()
}

// expected estimates how many of something (arguments, facts) the
// candidates still to keep will use: the kept candidates used total, and
// each further one is expected to use their average, or n while none is
// kept.
func (b *factBatch) expected(total, n int) int {
	if b.kept > 0 {
		n = total / b.kept
	}
	return n * b.more
}

// block returns n fresh argument terms. A new block holds them plus half of
// what the candidates still to keep are expected to need, so a dataset's
// arguments take a few allocations and the last block wastes little.
func (b *factBatch) block(n int) []logic.Term {
	if len(b.free) < n {
		b.free = make([]logic.Term, n+b.expected(b.keptArgs, n)/2)
	}
	terms := b.free[:n:n]
	b.free = b.free[n:]
	return terms
}

// addTo keeps what the batch describes and adds every held fact to kb.
func (b *factBatch) addTo(kb *solve.KB) {
	if len(b.facts) > 0 {
		b.keep()
	}
	kb.AddFacts(b.heads)
	b.heads, b.free = nil, nil
	b.kept, b.keptArgs, b.keptFacts = 0, 0, 0
}

// fix makes every name entered so far vocabulary, which reset keeps.
func (b *factBatch) fix() { b.fixed = len(b.names) }

// reset empties the batch of all but its vocabulary.
func (b *factBatch) reset() {
	text := 0
	if b.fixed > 0 {
		text = int(b.names[b.fixed-1].to)
	}
	b.names, b.nameText = b.names[:b.fixed], b.nameText[:text]
	b.args, b.facts = b.args[:0], b.facts[:0]
}
