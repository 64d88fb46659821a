// Package serve is the learn-then-serve runtime: it compiles a learned
// theory plus its background knowledge into an immutable, versioned
// snapshot artifact, and serves concurrent classification over HTTP with
// proof-trace explanations, hot-swapping to newer snapshots with zero
// dropped requests. The learning master publishes a snapshot at every epoch
// boundary (core.Config.Publish / `p2mdie -publish`), so a running service
// tracks a live learning run.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/logic"
	"repro/internal/solve"
	"repro/internal/wire"
)

// snapshotFormat is the leading byte of a snapshot body, ahead of the
// wire-encoded Snapshot. Format 1 was the gob stream of earlier builds,
// which is not read: its first byte is a gob message length, never this
// one, so such a file is refused by name.
const snapshotFormat = 2

// snapshotPrefix/Suffix name snapshot files: snap-<seq>.isnap, seq
// zero-padded so lexical and numeric order agree.
const (
	snapshotPrefix = "snap-"
	snapshotSuffix = ".isnap"
)

// Snapshot is one immutable serving artifact: everything a fresh process
// needs to answer classification queries for a learned theory — no source
// re-parsing, no dataset regeneration.
//
// Interned symbols are process-local, so encoded terms are not portable on
// their own: Symbols carries the writing process's symbol names in intern order,
// and ReadSnapshot re-interns them and rewrites every term into the reading
// process's table. Pos and Neg carry the training example atoms; they are
// not needed to serve, but make a snapshot self-contained for parity
// checking and load generation.
type Snapshot struct {
	// Name is the dataset name the theory was learned on.
	Name string
	// Fingerprint is core.Fingerprint of the learning task, the identity
	// link between a serving artifact and the run that produced it.
	Fingerprint uint64
	// Epoch is the number of completed learning epochs behind Theory.
	Epoch int
	// Theory is the learned rule set in acceptance order.
	Theory []logic.Clause
	// Clauses is the full background knowledge (solve.KB.AllClauses order).
	Clauses []logic.Clause
	// Budget bounds serving-time proofs, same as learning-time coverage.
	Budget solve.Budget
	// Pos and Neg are the training example atoms.
	Pos, Neg []logic.Term
	// Symbols is the writer's interned symbol table, in intern order.
	Symbols []string
}

// NewSnapshot captures a snapshot of theory over kb, stamping the current
// process's symbol table.
func NewSnapshot(name string, fp uint64, epoch int, theory []logic.Clause, kb *solve.KB, budget solve.Budget, pos, neg []logic.Term) *Snapshot {
	syms := make([]string, logic.NumSymbols())
	for i := range syms {
		syms[i] = logic.Symbol(i).Name()
	}
	return &Snapshot{
		Name:        name,
		Fingerprint: fp,
		Epoch:       epoch,
		Theory:      append([]logic.Clause(nil), theory...),
		Clauses:     kb.AllClauses(),
		Budget:      budget,
		Pos:         pos,
		Neg:         neg,
		Symbols:     syms,
	}
}

// SnapshotPath returns the file name of snapshot seq under dir.
func SnapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotSuffix))
}

// WriteSnapshot durably writes s as snapshot seq under dir using the ckpt
// checked format (CRC-framed, atomic temp-file-and-rename), and returns the
// file path. Unlike checkpoints, serving snapshots are never pruned by the
// writer: the registry decides retention.
func WriteSnapshot(dir string, seq uint64, s *Snapshot) (string, error) {
	// The body goes in the wire compression envelope (flag byte +
	// optional flate): a snapshot ships the full example set and symbol
	// table, which deflates well, and the publish directory may hold many
	// of them. Same threshold and framing as bulk protocol frames.
	w := wire.Writer{B: []byte{0x00, snapshotFormat}} // 0x00 = raw-envelope flag
	w.Strings(s.Symbols)
	w.String(s.Name)
	w.Fixed64(s.Fingerprint)
	w.Int(s.Epoch)
	w.Clauses(s.Theory)
	w.Clauses(s.Clauses)
	w.Int(s.Budget.MaxDepth)
	w.Varint(s.Budget.MaxInferences)
	w.Terms(s.Pos)
	w.Terms(s.Neg)
	path := SnapshotPath(dir, seq)
	if err := ckpt.WriteFile(path, wire.Compress(w.B)); err != nil {
		return "", err
	}
	return path, nil
}

// ReadSnapshot loads, validates and re-interns one snapshot file. After it
// returns, every term in the snapshot is expressed in the reading process's
// symbol table.
func ReadSnapshot(path string) (*Snapshot, error) {
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return s, nil
}

// decodeSnapshot is WriteSnapshot's inverse over the bytes inside the
// ckpt frame, ending in the rebind. A body of another format — the gob
// stream of an earlier build — is refused by name; a truncated or corrupt
// one, or one whose terms name a symbol past its own table, is an error.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	body, err := wire.Decompress(payload)
	if err == nil && (len(body) == 0 || body[0] != snapshotFormat) {
		err = fmt.Errorf("leading byte %#02x", body[:min(len(body), 1)])
	}
	if err != nil {
		return nil, fmt.Errorf("not a format-%d snapshot (%v): re-publish snapshots an earlier build wrote", snapshotFormat, err)
	}
	r := wire.NewReader(body[1:])
	s := &Snapshot{Symbols: r.Strings(), Name: r.String(), Fingerprint: r.Fixed64(), Epoch: r.Int()}
	s.Theory = r.Clauses()
	s.Clauses = r.Clauses()
	s.Budget.MaxDepth = r.Int()
	s.Budget.MaxInferences = r.Varint()
	s.Pos = r.Terms()
	s.Neg = r.Terms()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("decode snapshot: %w: %d trailing bytes", wire.ErrCorrupt, n)
	}
	if err := s.rebind(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebind rewrites the snapshot's terms from the writer's symbol numbering
// into this process's, interning names as needed. When the tables agree (a
// reload within the writing process, or a server that interned nothing
// else first) the terms are only checked, not rewritten.
func (s *Snapshot) rebind() error {
	remap := make([]logic.Symbol, len(s.Symbols))
	identity := true
	for i, name := range s.Symbols {
		remap[i] = logic.Intern(name)
		if int(remap[i]) != i {
			identity = false
		}
	}
	if identity {
		remap = nil
	}
	return s.renumber(len(s.Symbols), remap)
}

// renumber checks every term against a symbol table of size table — a
// term naming a symbol past it is an error — and, when remap is non-nil,
// rewrites its functor and constant symbols through remap in place.
func (s *Snapshot) renumber(table int, remap []logic.Symbol) error {
	rn := renumberer{table: table, remap: remap}
	for _, cs := range [][]logic.Clause{s.Theory, s.Clauses} {
		for i := range cs {
			rn.term(&cs[i].Head)
			for j := range cs[i].Body {
				rn.term(&cs[i].Body[j].Atom)
			}
		}
	}
	for _, ts := range [][]logic.Term{s.Pos, s.Neg} {
		for i := range ts {
			rn.term(&ts[i])
		}
	}
	return rn.err
}

// A renumberer is one renumber pass; the first symbol out of range
// latches err.
type renumberer struct {
	table int
	remap []logic.Symbol
	err   error
}

// term renumbers t; variables keep their index (a Var's Sym is a variable
// number, not a symbol-table entry).
func (rn *renumberer) term(t *logic.Term) {
	if t.Kind != logic.Atom && t.Kind != logic.Compound {
		return
	}
	if t.Sym < 0 || int(t.Sym) >= rn.table {
		if rn.err == nil {
			rn.err = fmt.Errorf("decode snapshot: %w: symbol %d past the snapshot's %d-symbol table", wire.ErrCorrupt, t.Sym, rn.table)
		}
		return
	}
	if rn.remap != nil {
		t.Sym = rn.remap[t.Sym]
	}
	for i := range t.Args {
		rn.term(&t.Args[i])
	}
}

// KB builds the indexed knowledge base from the snapshot's clauses.
func (s *Snapshot) KB() *solve.KB {
	kb := solve.NewKB()
	kb.AddProgram(s.Clauses)
	return kb
}

// SeqFromPath recovers the sequence number from a snapshot file path, or 0
// when the name does not follow the snap-<seq>.isnap convention.
func SeqFromPath(path string) uint64 {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0
	}
	seq, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), 10, 64)
	return seq
}

// SnapshotFile is one snapshot file found in a publish directory.
type SnapshotFile struct {
	Path string
	Seq  uint64
}

// ListSnapshotFiles returns the snapshot files under dir in ascending
// sequence order. A missing directory lists as empty: a watcher may start
// before its learning master has published anything.
func ListSnapshotFiles(dir string) ([]SnapshotFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: %w", err)
	}
	var out []SnapshotFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, SnapshotFile{Path: filepath.Join(dir, name), Seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
