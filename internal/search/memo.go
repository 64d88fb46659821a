package search

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/logic"
	"repro/internal/solve"
)

// This file is the coverage result memo. A search asks the same coverage
// question many times: two bottom-clause literals such as atm(D,A1,c,22,C1)
// and atm(D,A2,c,22,C2) make alpha-equivalent candidates from different
// index sets, and on pyrimidines a covering run's searches generate 8 002
// candidates of which only 1 737 are distinct clauses. What a proof answers
// and charges depends only on the clause up to variable renaming, the
// example, the program and the budget, so an Evaluator proves each such
// question once and replays it afterwards (solve.Machine.ReplayQuery):
// same bits, same TotalInferences, same CutoffQueries, nothing run.
//
// A rule's key is an exact, pointer-free encoding of it — head, then every
// body literal in order with its sign; atoms by symbol, numbers by kind and
// float bits (1, 1.0, 0.0 and -0.0 are four keys), compounds by functor and
// arity, variables numbered by first occurrence. Keys sit back to back in
// one byte arena, found through an open-addressed table; each distinct rule
// owns a slab of one byte per example of the store, positives first. A
// byte is 0 while the answer is unknown and (charge+1)<<1 | covered once it
// is, for charges up to memoMaxCharge. A proof that charged more stores
// memoOverflow | covered, and its charge in the overflow table under the
// byte's slab offset. A proof that the budget cut off is never stored: it is
// proved every time, so a cutoff is never replayed.
//
// The memo holds answers for one machine (its budget), one program and one
// example store. begin clears it at the start of every coverage call that
// finds any of them changed — KB.Add only ever adds, so the KB and its size
// name its program — or the memo holding memoMaxRules rules. Clearing only
// there keeps every slab a call has looked up its own until the call
// returns: a group of pack members holds several at once.
//
// Evaluator.Close hands the memo's arenas to memoArenaPool, and the next
// memo to begin takes them, so a worker that builds an evaluator per
// example partition does not grow a fresh table each time. Arenas past
// memoMaxPooledBytes are left to the collector.

const (
	// memoMaxCharge is the largest charge a slab byte holds.
	memoMaxCharge = 125
	// memoOverflow marks a slab byte whose charge is in the overflow
	// table; its low bit is the answer, as in every other byte.
	memoOverflow = 0xfe
	// memoMaxRules caps the rules the memo keeps between coverage calls: a
	// call that finds this many starts with the memo cleared. One call may
	// add any number.
	memoMaxRules = 2048
	// memoMaxPooledBytes caps the arenas a closed memo hands on.
	memoMaxPooledBytes = 4 << 20
)

// memoSeed hashes every memo's keys; where a key lands has no effect on
// what the memo answers.
var memoSeed = maphash.MakeSeed()

// coverMemo is an Evaluator's coverage result memo.
type coverMemo struct {
	// What the answers were proved against.
	m      *solve.Machine
	kb     *solve.KB
	kbSize int
	ex     *Examples
	width  int // slab length: len(ex.Pos) + len(ex.Neg)

	memoArena
	key  []byte         // the key being looked up
	vars []logic.Symbol // the variables met so far in that key, in order
}

// memoArena is the storage of a coverMemo, handed from a closed evaluator to
// the next through memoArenaPool.
type memoArena struct {
	keys  []byte        // rule r's key is keys[ends[r-1]:ends[r]], ends[-1] = 0
	ends  []int         // one per rule, in insertion order
	slabs []byte        // rule r's slab is slabs[r*width:(r+1)*width]
	slots []memoSlot    // power-of-two length, at most three quarters full
	over  map[int]int64 // charges of memoOverflow bytes, by slab offset
}

var memoArenaPool sync.Pool // of *memoArena

// memoSlot is one table slot: a rule's key hash and its number plus one; 0
// marks a free slot.
type memoSlot struct {
	hash, rule uint32
}

// begin starts a coverage call over m and ex (see the file comment).
func (c *coverMemo) begin(m *solve.Machine, ex *Examples) {
	kb, size := m.KB(), 0
	if kb != nil {
		size = kb.Size()
	}
	width := len(ex.Pos) + len(ex.Neg)
	if m == c.m && kb == c.kb && size == c.kbSize && ex == c.ex && width == c.width && len(c.ends) < memoMaxRules {
		return
	}
	c.m, c.kb, c.kbSize, c.ex, c.width = m, kb, size, ex, width
	if c.slots == nil {
		if a, ok := memoArenaPool.Get().(*memoArena); ok {
			c.memoArena = *a
		}
	}
	c.keys, c.ends, c.slabs = c.keys[:0], c.ends[:0], c.slabs[:0]
	clear(c.slots)
	clear(c.over)
}

// release empties the memo and hands its arenas to the pool, unless they
// have grown past memoMaxPooledBytes. The next begin starts afresh.
func (c *coverMemo) release() {
	a := c.memoArena
	*c = coverMemo{}
	if a.slots == nil || cap(a.keys)+8*cap(a.ends)+cap(a.slabs)+8*cap(a.slots)+32*len(a.over) > memoMaxPooledBytes {
		return
	}
	clear(a.over)
	memoArenaPool.Put(&a)
}

// slab returns the offset in c.slabs of rule's slab, adding a slab of
// unknowns for a rule the memo has not met. The offset stays valid until
// the next begin.
func (c *coverMemo) slab(rule *logic.Clause) int {
	c.key = c.appendRule(c.key[:0], rule)
	h := uint32(maphash.Bytes(memoSeed, c.key))
	if 4*(len(c.ends)+1) > 3*len(c.slots) {
		c.grow()
	}
	mask := uint32(len(c.slots) - 1)
	for i := h; ; i++ {
		s := &c.slots[i&mask]
		if s.rule == 0 {
			c.keys = append(c.keys, c.key...)
			c.ends = append(c.ends, len(c.keys))
			n := len(c.slabs)
			c.slabs = slices.Grow(c.slabs, c.width)[:n+c.width]
			clear(c.slabs[n:])
			*s = memoSlot{h, uint32(len(c.ends))}
			return (len(c.ends) - 1) * c.width
		}
		if r := int(s.rule - 1); s.hash == h && bytes.Equal(c.keyOf(r), c.key) {
			return r * c.width
		}
	}
}

func (c *coverMemo) keyOf(r int) []byte {
	start := 0
	if r > 0 {
		start = c.ends[r-1]
	}
	return c.keys[start:c.ends[r]]
}

// grow doubles the table and re-files every rule in it.
func (c *coverMemo) grow() {
	old := c.slots
	c.slots = make([]memoSlot, max(64, 2*len(old)))
	mask := uint32(len(c.slots) - 1)
	for _, s := range old {
		if s.rule == 0 {
			continue
		}
		i := s.hash
		for c.slots[i&mask].rule != 0 {
			i++
		}
		c.slots[i&mask] = s
	}
}

// appendRule appends rule's key to b.
func (c *coverMemo) appendRule(b []byte, rule *logic.Clause) []byte {
	c.vars = c.vars[:0]
	b = c.appendTerm(b, &rule.Head)
	for i := range rule.Body {
		lit := &rule.Body[i]
		sign := byte(0)
		if lit.Neg {
			sign = 1
		}
		b = c.appendTerm(append(b, sign), &lit.Atom)
	}
	return b
}

// appendTerm appends t's encoding: its kind, then what tells it apart
// within that kind.
func (c *coverMemo) appendTerm(b []byte, t *logic.Term) []byte {
	b = append(b, byte(t.Kind))
	switch t.Kind {
	case logic.Var:
		n := 0
		for n < len(c.vars) && c.vars[n] != t.Sym {
			n++
		}
		if n == len(c.vars) {
			c.vars = append(c.vars, t.Sym)
		}
		return binary.AppendUvarint(b, uint64(n))
	case logic.Atom:
		return binary.AppendUvarint(b, uint64(uint32(t.Sym)))
	case logic.Int, logic.Float:
		// All 64 bits, byte-reversed: a round number's low mantissa bytes
		// are zero, and the varint drops them.
		return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(t.Num)))
	case logic.Compound:
		b = binary.AppendUvarint(b, uint64(uint32(t.Sym)))
		b = binary.AppendUvarint(b, uint64(len(t.Args)))
		for i := range t.Args {
			b = c.appendTerm(b, &t.Args[i])
		}
	}
	return b
}

// known reports the answer in slab byte at, if there is one, and replays
// its charge on m.
func (c *coverMemo) known(m *solve.Machine, at int) (covered, ok bool) {
	v := c.slabs[at]
	if v == 0 {
		return false, false
	}
	if v >= memoOverflow {
		m.ReplayQuery(c.over[at])
	} else {
		m.ReplayQuery(int64(v>>1) - 1)
	}
	return v&1 == 1, true
}

// store records an uncut proof's answer and charge in slab byte at, and a
// charge past memoMaxCharge in the overflow table.
func (c *coverMemo) store(at int, covered bool, charge int64) {
	v := byte(memoOverflow)
	if charge > memoMaxCharge {
		if c.over == nil {
			c.over = make(map[int]int64)
		}
		c.over[at] = charge
	} else {
		v = byte(charge+1) << 1
	}
	if covered {
		v |= 1
	}
	c.slabs[at] = v
}
