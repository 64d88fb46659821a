package solve

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
)

// This file is the one property every solve entry point answers to. A fast
// path may change what the prover runs, never what it charges: asked any
// question — a rule and a ground example, or a conjunction to enumerate — at
// any budget, every entry point must report what the seed engine reports
// (refMachine, differential_test.go, which shares with the production
// engine only the KB's clause store and the builtins): the answer,
// the inferences charged and whether the query was cut off. The entry
// points are CoversQuery on a held query, CoversExample, the exact re-proof
// proveExact, ProveExample and ProveQuery (whose proof must be rooted at the
// example), CoversPack with every member live and with some skipped, and
// Solve. Every question goes to every entry point, at every budget a test
// asks for; what keeps state from one question to the next — the ground-call
// memo, a pack's scratch — is asked the whole input twice, cold and then warm
// from the first pass.
//
// Every test of a fast path is a case of the property: it builds an
// oracleInput that puts a budget event where its path can meet one, picks
// the budgets, and pins how much the path was used. A new fast path adds a
// case, not a harness.

// oracleInput is one program with the questions asked of it: groups of
// rules, each rule asked on every example of its group and, when Prefix > 0,
// the group asked as one QueryPack sharing that many leading body literals;
// and conjunctions enumerated by Solve.
type oracleInput struct {
	name   string
	kb     *KB
	groups []oracleGroup
	enums  [][]logic.Literal
}

type oracleGroup struct {
	Prefix   int
	Rules    []*logic.Clause
	Examples []logic.Term
	PackOnly bool // the rules are asked only as the pack, not one by one
}

func group(prefix int, examples string, rules ...string) oracleGroup {
	g := oracleGroup{Prefix: prefix}
	for _, e := range strings.Split(examples, " ") {
		g.Examples = append(g.Examples, logic.MustParseTerm(e))
	}
	for _, src := range rules {
		r := logic.MustParseClause(src)
		g.Rules = append(g.Rules, &r)
	}
	return g
}

// ask proves rule r, held as q, on ex through the entry point named, and
// reports the answer, charge and cutoff, and whether the proof it returned,
// if any, is rooted at ex.
func ask(entry string, m *Machine, q *Query, r *logic.Clause, ex logic.Term) (run coverRun, rooted bool) {
	inf, cut := m.TotalInferences(), m.CutoffQueries()
	var p *ProofStep
	switch entry {
	case "CoversQuery":
		run.covered = m.CoversQuery(q, ex)
	case "CoversExample":
		run.covered = m.CoversExample(r, ex)
	case "proveExact":
		run.covered = m.proveExact(q, ex)
	case "ProveExample":
		p, run.covered = m.ProveExample(r, ex)
	default:
		p, run.covered = m.ProveQuery(q, ex)
	}
	run.inferences, run.cutoffs = m.TotalInferences()-inf, m.CutoffQueries()-cut
	return run, !run.covered || !strings.HasPrefix(entry, "Prove") || logic.Equal(p.Goal, ex)
}

// entryPoints are the rule-by-rule entry points. Every one runs on a machine
// of its own, so that what one machine keeps — the ground-call memo — never
// warms another's questions. The first warm of them, CoversQuery and
// CoversExample, keep something and are asked the whole input twice: cold,
// and then on the memo the first pass warmed. Exact mode keeps nothing, and
// is asked once.
var entryPoints = []string{"CoversQuery", "CoversExample", "proveExact", "ProveExample", "ProveQuery"}

const warm = 2

// fastUse is how much machines used the fast paths: inferences replayed from
// the ground-call memo, candidates filtered, exact re-proofs rule by rule and
// of pack members, and pack members skipped.
type fastUse struct{ Replayed, Filtered, Alone, Packed, Skipped int64 }

func (u *fastUse) Add(v fastUse) {
	u.Replayed, u.Filtered, u.Alone = u.Replayed+v.Replayed, u.Filtered+v.Filtered, u.Alone+v.Alone
	u.Packed, u.Skipped = u.Packed+v.Packed, u.Skipped+v.Skipped
}

// oracleRun is what the property leaves its caller.
type oracleRun struct {
	want [][][]coverRun // the oracle's outcomes by group, example and rule
	held *Machine       // the held-query machine, warm
	cold fastUse        // the held-query and pack machines after the cold pass
	all  fastUse        // the held-query and pack machines over both passes
}

// total is the oracle's charge and cutoffs over all of the questions.
func (r *oracleRun) total() (sum coverRun) {
	for _, g := range r.want {
		for _, e := range g {
			for _, w := range e {
				sum.inferences, sum.cutoffs = sum.inferences+w.inferences, sum.cutoffs+w.cutoffs
			}
		}
	}
	return sum
}

// proverMatchesOracle is the property: it asks every question of in at
// budget b of every entry point, and a QueryPack every group with a prefix —
// cold with every member live, then again with every member live on the
// pack's used scratch, then with about one member in three skipped — and
// fails t at the first report that is not the oracle's (across a pack, the
// oracle's sum with skipped members uncovered and uncharged) and at
// executed-work counters that do not add up. Exact mode must use no fast
// path. Every conjunction is enumerated once, after the coverage questions.
func proverMatchesOracle(t testing.TB, in *oracleInput, b Budget) *oracleRun {
	t.Helper()
	ref := newRefMachine(in.kb, b)
	ms := make([]*Machine, len(entryPoints)+1) // by entry point, then the pack's
	for i := range ms {
		ms[i] = NewMachine(in.kb, b)
	}
	qs := make([][]Query, len(in.groups)) // by group and rule, held by every entry point's machine
	packs := make([]QueryPack, len(in.groups))
	for gi, g := range in.groups {
		qs[gi] = make([]Query, len(g.Rules))
		for c, r := range g.Rules {
			ms[0].CompileQuery(&qs[gi][c], r)
		}
		if g.Prefix > 0 {
			ms[len(entryPoints)].CompilePack(&packs[gi], g.Rules, g.Prefix)
		}
	}
	run := &oracleRun{want: make([][][]coverRun, len(in.groups)), held: ms[0]}
	var skipped int64
	use := func() fastUse {
		m, pm := ms[0], ms[len(entryPoints)]
		return fastUse{m.ReplayedInferences(), m.FilteredCandidates(), m.reproofs, pm.reproofs, skipped}
	}
	for pass := range 2 {
		for gi, g := range in.groups {
			hit, skip := make([]bool, len(g.Rules)), make([]bool, len(g.Rules))
			for e, ex := range g.Examples {
				if pass == 0 {
					run.want[gi] = append(run.want[gi], nil)
					for _, r := range g.Rules {
						run.want[gi][e] = append(run.want[gi][e], ref.run(r, ex))
					}
				}
				want := run.want[gi][e]
				for i, entry := range entryPoints {
					m := ms[i]
					if g.PackOnly || pass == 1 && i >= warm {
						continue
					}
					for c, r := range g.Rules {
						if got, rooted := ask(entry, m, &qs[gi][c], r, ex); got != want[c] || !rooted {
							t.Fatalf("%s, budget %+v, pass %d, %s: %s on %s is %+v (rooted %v), oracle %+v",
								in.name, b, pass, entry, r.String(), ex, got, rooted, want[c])
						}
					}
				}
				if g.Prefix == 0 {
					continue
				}
				masks := [][]bool{nil}
				if pass == 1 {
					for c := range skip {
						skip[c] = (e+c)%3 == 1
					}
					masks = append(masks, skip)
				}
				m, pack := ms[len(entryPoints)], &packs[gi]
				for _, skip := range masks {
					live, sum := slices.Clone(want), coverRun{}
					for c := range live {
						if skip != nil && skip[c] {
							live[c] = coverRun{}
							skipped++
						}
						sum.inferences, sum.cutoffs = sum.inferences+live[c].inferences, sum.cutoffs+live[c].cutoffs
					}
					got := runCovers(m, func() bool { m.CoversPack(pack, ex, hit, skip); return false })
					for c, w := range live {
						if hit[c] != w.covered || pack.Charged(c) != w.inferences {
							t.Fatalf("%s, budget %+v, pass %d: pack member %d (%s, shared prefix %d) on %s covered %v charged %d, oracle %+v, skip %v",
								in.name, b, pass, c, g.Rules[c].String(), g.Prefix, ex, hit[c], pack.Charged(c), w, skip)
						}
					}
					if got != sum {
						t.Fatalf("%s, budget %+v, pass %d: pack of %d on %s moved the counters by %+v, oracle %+v, skip %v",
							in.name, b, pass, len(g.Rules), ex, got, sum, skip)
					}
				}
			}
		}
		if pass == 0 {
			run.cold = use()
		}
	}
	for _, goals := range in.enums {
		if got, want := enumerate(ms[0], goals), ref.enumerate(goals); got != want {
			t.Fatalf("%s, budget %+v, enumerating %v:\n   got %+v\noracle %+v", in.name, b, goals, got, want)
		}
	}
	run.all = use()
	for i, m := range ms {
		steps, replayed, filtered, charged := m.StepsExecuted(), m.ReplayedInferences(), m.FilteredCandidates(), m.TotalInferences()
		switch {
		case steps+replayed > charged || filtered > steps:
			t.Fatalf("%s, budget %+v: %d steps, %d replayed, %d filtered for %d charged", in.name, b, steps, replayed, filtered, charged)
		case i < len(entryPoints) && steps+replayed != charged:
			t.Fatalf("%s, budget %+v: rule by rule through %s, %d steps and %d replayed for %d charged", in.name, b, entryPoints[i], steps, replayed, charged)
		case i >= warm && i < len(entryPoints) && (filtered != 0 || replayed != 0):
			t.Fatalf("%s, budget %+v: exact mode (%s) filtered %d candidates and replayed %d charges", in.name, b, entryPoints[i], filtered, replayed)
		}
	}
	return run
}

// sweepDepths are the MaxDepth values of the sweep: the cuts right below and
// at the hand-built programs' deepest frames, and the default.
var sweepDepths = []int{1, 2, 3, 4, 6, 7, 64}

// sweep asks in at DefaultBudget, where nothing may be re-proved, and then
// at every MaxInferences from 1 to 3 past its longest proof times every
// MaxDepth of sweepDepths — so that a cut lands on every charge once: inside
// a filtered run and on the candidate after it, inside a replayed segment and
// on its tail, in a pack's prefix and in its suffixes, before anything was
// recorded and after. It returns the VM's use of the fast paths.
func sweep(t testing.TB, in *oracleInput) fastUse {
	t.Helper()
	use := proverMatchesOracle(t, in, DefaultBudget).all
	if use.Alone+use.Packed != 0 {
		t.Fatalf("%s, DefaultBudget: %d queries and %d pack members re-proved", in.name, use.Alone, use.Packed)
	}
	longest := in.longest()
	for maxInf := int64(1); maxInf <= longest+3; maxInf++ {
		for _, d := range sweepDepths {
			use.Add(proverMatchesOracle(t, in, Budget{MaxInferences: maxInf, MaxDepth: d}).all)
		}
	}
	t.Logf("%s: longest proof %d, %+v", in.name, longest, use)
	return use
}

// longest is the largest charge of any question of in at any depth of the
// sweep.
func (in *oracleInput) longest() int64 {
	l := int64(0)
	for _, d := range sweepDepths {
		ref := newRefMachine(in.kb, Budget{MaxDepth: d})
		for _, g := range in.groups {
			for _, r := range g.Rules {
				for _, ex := range g.Examples {
					l = max(l, ref.run(r, ex).inferences)
				}
			}
		}
		for _, goals := range in.enums {
			l = max(l, ref.enumerate(goals).inferences)
		}
	}
	return l
}

// enumeration is what Solve reports for a conjunction: the solutions in
// order (up to 200), whether there was one, and the charge and cutoff.
type enumeration struct {
	solutions string
	coverRun
}

func numVars(goals []logic.Literal) int {
	nv := 0
	for _, g := range goals {
		nv = max(nv, g.Atom.MaxVar()+1)
	}
	return nv
}

func enumerate(m *Machine, goals []logic.Literal) enumeration {
	nv := numVars(goals)
	var sols []string
	run := runCovers(m, func() bool {
		return m.Solve(goals, nv, func(bs *logic.Bindings) bool {
			sols = append(sols, solutionString(bs, nv))
			return len(sols) < 200
		})
	})
	return enumeration{strings.Join(sols, "; "), run}
}

// genQuestions adds to in questions drawn by the differential suite's
// generators from rng: rules single rules and fans fans, each asked on
// perGroup examples, and goals conjunctions. With limit > 0 it keeps only
// questions whose every proof ends within limit charges at every depth of
// the sweep, and is not cut off at the default depth — so that sweeping them
// stays small and DefaultBudget re-proves nothing.
func genQuestions(rng *rand.Rand, in *oracleInput, rules, fans, goals, perGroup int, limit int64) {
	fits := func(ask func(ref *refMachine)) bool {
		for _, d := range sweepDepths {
			if limit == 0 {
				break
			}
			ref := newRefMachine(in.kb, Budget{MaxDepth: d, MaxInferences: limit})
			ask(ref)
			if ref.totalInf >= limit || d == defaultMaxDepth && ref.cutoffs > 0 {
				return false
			}
		}
		return true
	}
	draw := func(rules []logic.Clause, prefix int) {
		g := oracleGroup{Prefix: prefix}
		for e := 0; e < perGroup; e++ {
			g.Examples = append(g.Examples, genExample(rng, rules[0].Head))
		}
		for i := range rules {
			for _, ex := range g.Examples {
				if !fits(func(ref *refMachine) { ref.run(&rules[i], ex) }) {
					return
				}
			}
			g.Rules = append(g.Rules, &rules[i])
		}
		in.groups = append(in.groups, g)
	}
	for i := 0; i < rules; i++ {
		draw([]logic.Clause{genRule(rng)}, 0)
	}
	for i := 0; i < fans; i++ {
		draw(genFan(rng))
	}
	for i := 0; i < goals; i++ {
		g, _ := genGoal(rng)
		if fits(func(ref *refMachine) { ref.enumerate(g) }) {
			in.enums = append(in.enums, g)
		}
	}
}

// genOracle asks the property of a genProgram program drawn from seed:
// rules single rules on 12 examples each, fans fans on 8 and goals
// conjunctions under the differential suite's budget, and fans more fans
// under a drawn tight budget where most proofs are cut off somewhere. The
// fans are asked only as packs.
func genOracle(t testing.TB, seed int64, rules, fans, goals int) fastUse {
	rng := rand.New(rand.NewSource(seed))
	in := oracleInput{name: fmt.Sprintf("genProgram seed %d", seed), kb: genProgram(rng)}
	tight := oracleInput{name: in.name + ", tight", kb: in.kb}
	genQuestions(rng, &in, rules, 0, goals, 12, 0)
	genQuestions(rng, &in, 0, fans, 0, 8, 0)
	genQuestions(rng, &tight, 0, fans, 0, 8, 0)
	for _, gs := range [][]oracleGroup{in.groups, tight.groups} {
		for i := range gs {
			gs[i].PackOnly = gs[i].Prefix > 0
		}
	}
	use := proverMatchesOracle(t, &in, Budget{MaxDepth: 12, MaxInferences: 4000}).all
	use.Add(proverMatchesOracle(t, &tight, tightBudget(rng)).all)
	return use
}

// fuzzOracle is one fuzz input: six rules, three fans a budget and ten
// conjunctions, fewer than the differential suite draws, so that fuzzing
// tries more programs.
func fuzzOracle(t *testing.T, seed int64) { genOracle(t, seed, 6, 3, 10) }

// tightBudget draws a budget under which most proofs are cut off somewhere.
func tightBudget(rng *rand.Rand) Budget {
	return Budget{
		MaxDepth:      []int{1, 2, 3, 12}[rng.Intn(4)],
		MaxInferences: []int64{3, 5, 8, 13, 21, 40, 80, 200}[rng.Intn(8)],
	}
}

// FuzzProverMatchesOracle is the property as a fuzz target over genProgram
// programs: every drawn program has genWide's keyed w/4 buckets, so the
// filter and its bulk charge run, and rules that call rules on ground
// arguments (v/1, rc/1), so held queries and packs record and replay ground
// calls, disable cyclic ones and re-prove in exact mode after a budget event.
// Run `go test -fuzz=FuzzProverMatchesOracle ./internal/solve` to explore
// beyond the seed corpus.
func FuzzProverMatchesOracle(f *testing.F) {
	for _, seed := range []int64{1 << 30, 0, 1, 2, 3, 7, 10, 11, 13, 24, 39, 1 << 20, -1} {
		f.Add(seed)
	}
	f.Fuzz(fuzzOracle)
}
