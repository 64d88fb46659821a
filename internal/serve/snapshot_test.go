package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/solve"
	"repro/internal/wire"
)

func trainsSnapshot(t testing.TB, epoch int, nRules int) *Snapshot {
	t.Helper()
	ds, err := datasets.ByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	theory := ds.TrueConcept
	if nRules < len(theory) {
		theory = theory[:nRules]
	}
	fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
	return NewSnapshot(ds.Name, fp, epoch, theory, ds.KB, ds.Budget, ds.Pos, ds.Neg)
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := trainsSnapshot(t, 3, 99)
	path, err := WriteSnapshot(dir, 7, snap)
	if err != nil {
		t.Fatal(err)
	}
	if want := SnapshotPath(dir, 7); path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	if got := SeqFromPath(path); got != 7 {
		t.Fatalf("SeqFromPath = %d, want 7", got)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != snap.Name || got.Fingerprint != snap.Fingerprint || got.Epoch != snap.Epoch {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Theory) != len(snap.Theory) || len(got.Clauses) != len(snap.Clauses) {
		t.Fatalf("size mismatch: %d/%d theory, %d/%d clauses",
			len(got.Theory), len(snap.Theory), len(got.Clauses), len(snap.Clauses))
	}
	for i := range snap.Theory {
		if got.Theory[i].String() != snap.Theory[i].String() {
			t.Fatalf("theory[%d] = %v, want %v", i, got.Theory[i], snap.Theory[i])
		}
	}
	// The re-read KB must answer exactly like the original: same covered
	// bits for every example under every rule.
	m1 := solve.NewMachine(snap.KB(), snap.Budget)
	m2 := solve.NewMachine(got.KB(), got.Budget)
	for ri := range snap.Theory {
		for _, ex := range append(append([]logic.Term{}, snap.Pos...), snap.Neg...) {
			if m1.CoversExample(&snap.Theory[ri], ex) != m2.CoversExample(&got.Theory[ri], ex) {
				t.Fatalf("coverage diverged after round trip: rule %d example %v", ri, ex)
			}
		}
	}
}

// TestSnapshotRebindsForeignSymbols simulates loading a snapshot written by
// a process with a different intern table: the stored table is padded and
// shifted, and every stored term renumbered to match. ReadSnapshot must
// rewrite all terms back into this process's numbering.
func TestSnapshotRebindsForeignSymbols(t *testing.T) {
	dir := t.TempDir()
	snap := trainsSnapshot(t, 1, 99)

	// Forge the foreign numbering on a private copy (a read-back): symbol i
	// becomes i+3 behind three dummy names this process never interned in
	// those slots.
	shift := 3
	own, err := WriteSnapshot(dir, 0, snap)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := ReadSnapshot(own)
	if err != nil {
		t.Fatal(err)
	}
	foreign.Symbols = append([]string{"zz_pad_a", "zz_pad_b", "zz_pad_c"}, snap.Symbols...)
	shiftMap := make([]logic.Symbol, len(snap.Symbols))
	for i := range shiftMap {
		shiftMap[i] = logic.Symbol(i + shift)
	}
	if err := foreign.renumber(len(shiftMap), shiftMap); err != nil {
		t.Fatal(err)
	}

	path, err := WriteSnapshot(dir, 1, foreign)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Theory {
		if got.Theory[i].String() != snap.Theory[i].String() {
			t.Fatalf("theory[%d] = %v, want %v", i, got.Theory[i], snap.Theory[i])
		}
	}
	for i := range snap.Pos {
		if !logic.Equal(got.Pos[i], snap.Pos[i]) {
			t.Fatalf("pos[%d] = %v, want %v", i, got.Pos[i], snap.Pos[i])
		}
	}
	m := solve.NewMachine(got.KB(), got.Budget)
	covered := 0
	for ri := range got.Theory {
		for _, ex := range got.Pos {
			if m.CoversExample(&got.Theory[ri], ex) {
				covered++
			}
		}
	}
	if covered == 0 {
		t.Fatal("rebound snapshot covers nothing — symbol rewrite broken")
	}
}

func TestReadSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	snap := trainsSnapshot(t, 1, 1)
	path, err := WriteSnapshot(dir, 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	bad := filepath.Join(dir, "snap-0000000000000002.isnap")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bad); err == nil {
		t.Fatal("corrupted snapshot read succeeded")
	}
	files, err := ListSnapshotFiles(dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("ListSnapshotFiles = %v, %v", files, err)
	}
}

// TestPublisherWithLearn pins the learn-then-serve pipeline in-process: a
// simulated-cluster run with a Publish hook must emit one snapshot per
// completed epoch plus the final theory, and the last snapshot's theory
// must be exactly the learned theory.
func TestPublisherWithLearn(t *testing.T) {
	dir := t.TempDir()
	ds, err := datasets.ByName("trains", 1)
	if err != nil {
		t.Fatal(err)
	}
	fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
	met, err := core.Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, core.Config{
		Workers: 2,
		Seed:    1,
		Search:  ds.Search,
		Bottom:  ds.Bottom,
		Budget:  ds.Budget,
		Publish: Publisher(dir, ds.Name, fp, ds.KB, ds.Budget, ds.Pos, ds.Neg),
	})
	if err != nil {
		t.Fatal(err)
	}
	files, err := ListSnapshotFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no snapshots published")
	}
	if len(files) != met.Epochs {
		t.Fatalf("published %d snapshots over %d epochs", len(files), met.Epochs)
	}
	last, err := ReadSnapshot(files[len(files)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	if last.Epoch != met.Epochs {
		t.Fatalf("last snapshot epoch = %d, want %d", last.Epoch, met.Epochs)
	}
	if len(last.Theory) != len(met.Theory) {
		t.Fatalf("last snapshot has %d rules, learned theory has %d", len(last.Theory), len(met.Theory))
	}
	for i := range met.Theory {
		if last.Theory[i].String() != met.Theory[i].String() {
			t.Fatalf("rule %d drifted: %v vs %v", i, last.Theory[i], met.Theory[i])
		}
	}
	if last.Fingerprint != fp {
		t.Fatalf("fingerprint = %x, want %x", last.Fingerprint, fp)
	}
}

// TestSnapshotCompressed pins the on-disk format introduced with the wire
// envelope: a trains snapshot is well past CompressMin, so the ckpt
// payload must carry the flate flag and undercut the raw encoding.
func TestSnapshotCompressed(t *testing.T) {
	dir := t.TempDir()
	snap := trainsSnapshot(t, 1, 99)
	path, err := WriteSnapshot(dir, 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 || payload[0] != 0x01 {
		t.Fatalf("snapshot envelope flag %#x, want flate (0x01)", payload[0])
	}
	raw, err := wire.Decompress(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) >= len(raw)+1 {
		t.Fatalf("compression did not shrink: %d envelope vs %d raw", len(payload), len(raw))
	}
}

// gobSnapshot is snap as builds before format 2 encoded it: the format
// number 1, then the Snapshot, in one gob stream.
func gobSnapshot(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantFormatRefusal requires ReadSnapshot to refuse payload by name.
func wantFormatRefusal(t *testing.T, payload []byte) {
	t.Helper()
	path := SnapshotPath(t.TempDir(), 2)
	if err := ckpt.WriteFile(path, payload); err != nil {
		t.Fatal(err)
	}
	_, err := ReadSnapshot(path)
	if want := fmt.Sprintf("not a format-%d snapshot", snapshotFormat); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadSnapshot: %v, want an error naming %q", err, want)
	}
}

// TestReadSnapshotLegacyUncompressed pins the refusal of the oldest
// snapshots — the bare gob stream inside the ckpt frame, written before
// the compression envelope: there is no legacy reader, and the error
// names the format this build reads.
func TestReadSnapshotLegacyUncompressed(t *testing.T) {
	wantFormatRefusal(t, gobSnapshot(t, trainsSnapshot(t, 2, 99)))
}

// TestGobSnapshotRefused pins the refusal of a format-1 snapshot as the
// previous build wrote it: the gob stream in the compression envelope.
func TestGobSnapshotRefused(t *testing.T) {
	wantFormatRefusal(t, wire.Compress(append([]byte{0x00}, gobSnapshot(t, trainsSnapshot(t, 2, 99))...)))
}

// TestReadSnapshotRejectsSymbolPastTable pins the bounds check of the
// rebind: a well-framed snapshot whose terms name a symbol its own table
// does not hold fails to read — it must not panic a watching server —
// whether the table it does hold agrees with this process's (no rewrite)
// or not.
func TestReadSnapshotRejectsSymbolPastTable(t *testing.T) {
	for _, table := range [][]string{{logic.Symbol(0).Name()}, {"zz_foreign_only"}} {
		snap := trainsSnapshot(t, 1, 99)
		snap.Symbols = table
		path, err := WriteSnapshot(t.TempDir(), 1, snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(path); err == nil || !strings.Contains(err.Error(), "symbol table") {
			t.Fatalf("ReadSnapshot of a snapshot with the table %q: %v, want a symbol-table error", table, err)
		}
	}
}

// FuzzReadSnapshot feeds arbitrary bytes, inside a valid ckpt frame, to
// ReadSnapshot: it must return an error or a snapshot, never panic.
func FuzzReadSnapshot(f *testing.F) {
	path, err := WriteSnapshot(f.TempDir(), 1, trainsSnapshot(f, 1, 1))
	if err != nil {
		f.Fatal(err)
	}
	seed, err := ckpt.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{0x00, snapshotFormat})
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := SnapshotPath(t.TempDir(), 1)
		if err := ckpt.WriteFile(path, payload); err != nil {
			t.Fatal(err)
		}
		ReadSnapshot(path)
	})
}
