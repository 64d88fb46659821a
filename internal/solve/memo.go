package solve

import (
	"math"
	"math/bits"

	"repro/internal/logic"
)

// This file is the ground-call memo. A coverage query proves the same few
// ground subgoals over and over — on one pyrimidines learn the frontier's
// suffix goals such as polar_gte(g5, 3) are called half a million times with
// every argument bound, but there are only some eight hundred distinct calls
// — and each call re-runs the rule head, the fact lookups and the builtin
// beneath it. The memo records such a call's charges once per machine and
// replays them: no head stream runs, no body frame is pushed, no builtin is
// evaluated.
//
// It applies to a statically dispatched compiled goal (goalFrame.cp) whose
// predicate has a rule and 1–memoMaxArity arguments, when every argument
// dereferences to an atom or a number at call time. Such a call can bind no
// variable outside its own subtree — its arguments hold no variable, and the
// subtree's own are fresh — so, as long as no budget event occurs, how many
// solutions it reports and what it charges before each of them and after the
// last depend on the program and the goal alone. The continuation is still
// called once per solution, in the same order, with queryInf where the live
// subtree would have left it; fresh-variable numbering and the trail differ,
// and no charge looks at either.
//
// It is a fast path (query.go): a segment that would cross MaxInferences, or
// an entry whose recorded depth would reach MaxDepth from the call, flags the
// budget, and the query is proved again in exact mode.

const (
	// memoMaxArity is the widest call the memo keys.
	memoMaxArity = 3
	// memoMaxSolutions is the most solutions a recorded call may report; a
	// call with more is disabled.
	memoMaxSolutions = 64
	// memoMaxRecord caps the charges of one recording: a subtree past it is
	// disabled, so a miss never explores more than this beyond what the live
	// call would have.
	memoMaxRecord = 1 << 12
	// memoMaxEntries caps the table; reaching it clears the table.
	memoMaxEntries = 1 << 12
)

// memoKey names one ground call: the compiled predicate plus the kind and
// value of each argument — an atom's symbol, a number's float bits (Int and
// Float apart, -0.0 apart from 0.0).
type memoKey struct {
	cp    *compiledPred
	kinds [memoMaxArity]logic.Kind
	vals  [memoMaxArity]uint64
}

// memoEntry is one recorded call: segs[at:at+n] are the charges before each
// of its n solutions, tail those after the last, depth the deepest frame its
// subtree pushed, relative to the call. off marks a call never to replay nor
// record again.
type memoEntry struct {
	at, n int32
	tail  int64
	depth int32
	off   bool
}

// memoTable is a machine's memo: an open-addressing hash table of entries,
// probed linearly from memoKey.hash. It holds entries for one compiled
// program only — beginQuery clears it when the machine's program changes.
type memoTable struct {
	prog *program
	// slots has a power-of-two length, 1<<(64-shift), and is at most half
	// full; a slot with a nil cp is free. used counts the full ones.
	slots []memoSlot
	shift uint
	used  int
	segs  []int64
	// sols is the recording scratch: queryInf at each solution so far;
	// note is the recording continuation, bound once per machine.
	sols []int64
	note func() bool
}

type memoSlot struct {
	key memoKey
	memoEntry
}

// memoMinSlots is the table's first size.
const memoMinSlots = 64

// hash is multiplicative: its top bits depend on every bit of the key, and
// the table indexes by them. Each argument is mixed in after the state so
// far has been multiplied — small symbols would cancel a small predicate id
// if both were XORed in as they are — and a number's bits are folded onto
// their low half, since small numbers differ in the high half only.
func (k *memoKey) hash() uint64 {
	h := uint64(k.cp.id) | uint64(k.kinds[0])<<32 | uint64(k.kinds[1])<<40 | uint64(k.kinds[2])<<48
	for _, v := range k.vals {
		h = h*0x9E3779B97F4A7C15 ^ v ^ v>>32
	}
	return h * 0x9E3779B97F4A7C15
}

// slot returns the slot holding k, or the free slot where k belongs.
func (t *memoTable) slot(k *memoKey) *memoSlot {
	mask := uint64(len(t.slots) - 1)
	for i := k.hash() >> t.shift; ; i++ {
		if s := &t.slots[i&mask]; s.key.cp == nil || s.key == *k {
			return s
		}
	}
}

// lookup returns k's entry, if k is in the table.
func (t *memoTable) lookup(k *memoKey) (memoEntry, bool) {
	if t.used == 0 {
		return memoEntry{}, false
	}
	s := t.slot(k)
	return s.memoEntry, s.key.cp != nil
}

// insert adds k, growing the table when it would be more than half full.
func (t *memoTable) insert(k memoKey, e memoEntry) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]memoSlot, max(memoMinSlots, 2*len(old)))
		t.shift = uint(64 - bits.Len(uint(len(t.slots)-1)))
		for i := range old {
			if old[i].key.cp != nil {
				*t.slot(&old[i].key) = old[i]
			}
		}
	}
	*t.slot(&k) = memoSlot{k, e}
	t.used++
}

func (t *memoTable) reset(prog *program) {
	t.prog = prog
	clear(t.slots)
	t.used = 0
	// A replay in progress may still range over the old segments.
	t.segs = nil
}

// callMemo is step's hook for a statically dispatched call to a memoizable
// predicate while the memo is on, after the call's own charge and depth
// check. ok = false sends the call live: an argument is not a constant, or
// the entry is disabled.
func (m *Machine) callMemo(fr *goalFrame, k func() bool) (cont, ok bool) {
	var key memoKey
	if !m.memoKey(fr, &key) {
		return false, false
	}
	segs, tail, ok := m.memoReplay(fr, &key)
	if !ok {
		return false, false
	}
	for _, seg := range segs {
		if !m.chargeN(seg, &m.work.replayed) {
			return true, true // budget: abandon this branch
		}
		if !m.solve(k) {
			return false, true
		}
	}
	m.chargeN(tail, &m.work.replayed)
	return true, true
}

// memoKey writes the key of fr's call into key, reading the goal in place,
// and reports false when an argument does not walk to an atom or a number.
func (m *Machine) memoKey(fr *goalFrame, key *memoKey) bool {
	atom := &fr.lit.Atom
	key.cp = fr.cp
	var scratch logic.Term
	for i := range atom.Args {
		t, _ := m.bs.WalkRef(&atom.Args[i], int(fr.off), &scratch)
		switch t.Kind {
		case logic.Atom:
			key.vals[i] = uint64(t.Sym)
		case logic.Int, logic.Float:
			key.vals[i] = math.Float64bits(t.Num)
		default:
			return false
		}
		key.kinds[i] = t.Kind
	}
	return true
}

// memoReplay is what a ground call that has paid its own charge and passed
// its depth check replays: the charges before each of its solutions and
// after the last, from key's entry, recorded on a miss. ok = false sends the
// call live: the entry is disabled. An entry whose recorded depth would
// reach MaxDepth from the call flags the budget instead — the live call
// might be cut — and leaves nothing to replay.
func (m *Machine) memoReplay(fr *goalFrame, key *memoKey) (segs []int64, tail int64, ok bool) {
	e, hit := m.memo.lookup(key)
	if !hit {
		e = m.record(fr, key)
	}
	if e.off {
		return nil, 0, false
	}
	if fr.depth+e.depth >= int32(m.budget.MaxDepth) {
		m.budgetHit = true // abandon this branch
		return nil, 0, true
	}
	return m.memo.segs[e.at : e.at+e.n], e.tail, true
}

// record runs the call's whole subtree once, in isolation — above a raised
// stack base, from queryInf 0, in exact mode and with a continuation that
// only notes the charge at each solution — stores what it charged, and
// restores everything the run touched.
func (m *Machine) record(fr *goalFrame, key *memoKey) memoEntry {
	t := &m.memo
	if t.note == nil {
		t.note = m.noteSolution
	}
	if t.used >= memoMaxEntries {
		t.reset(t.prog)
	}
	base, inf, hit, next, maxInf := m.base, m.queryInf, m.budgetHit, m.nextVar, m.budget.MaxInferences
	mark := m.bs.Mark()
	m.base = len(m.stack)
	m.queryInf, m.budgetHit = 0, false
	m.budget.MaxInferences = min(maxInf, memoMaxRecord)
	m.memoOn = false
	m.deepest = fr.depth
	t.sols = t.sols[:0]

	m.resolveVM(fr.cp, fr.lit.Atom, int(fr.off), *fr, t.note)

	e := memoEntry{off: m.budgetHit || len(t.sols) > memoMaxSolutions}
	if !e.off {
		e.at, e.n, e.depth = int32(len(t.segs)), int32(len(t.sols)), m.deepest-fr.depth
		prev := int64(0)
		for _, s := range t.sols {
			t.segs = append(t.segs, s-prev)
			prev = s
		}
		e.tail = m.queryInf - prev
	}
	t.insert(*key, e)

	// An early stop leaves builtin and ground-fact steps un-undone.
	m.bs.Undo(mark)
	m.stack = m.stack[:m.base]
	m.base, m.queryInf, m.budgetHit, m.nextVar = base, inf, hit, next
	m.budget.MaxInferences = maxInf
	m.memoOn = true
	return e
}

// noteSolution is the recording continuation: it notes the charge so far
// and asks for the next solution while there may be one to keep.
func (m *Machine) noteSolution() bool {
	m.memo.sols = append(m.memo.sols, m.queryInf)
	return len(m.memo.sols) <= memoMaxSolutions
}
