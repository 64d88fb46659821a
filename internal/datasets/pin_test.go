package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/logic"
)

// pinnedGenerators are every public generator, at the sizes the benchmark
// and the harness build them.
var pinnedGenerators = []struct {
	name string
	gen  func() *Dataset
}{
	{"carcinogenesis-162-136", func() *Dataset { return CarcinogenesisSized(162, 136, 1) }},
	{"mesh-710-69", func() *Dataset { return MeshSized(710, 69, 1) }},
	{"pyrimidines-84-76", func() *Dataset { return PyrimidinesSized(84, 76, 1) }},
	{"pyrimidines-noisy-84-76-0.3", func() *Dataset { return PyrimidinesNoisy(84, 76, 0.3, 1) }},
	{"trains", Trains},
	{"trains-gen-100", func() *Dataset { return TrainsSized(100, 1) }},
	{"trains-skew-200", func() *Dataset { return TrainsSkewed(200, 1, 0.25) }},
}

// pinChildEnv names the generator a re-executed test binary runs.
const pinChildEnv = "DATASETS_PIN_GENERATOR"

// TestGeneratedDatasetsPinned pins every generator's output bit for bit
// against testdata/generated.golden: one line per generator with the SHA-256
// of the symbols it interned (in id order), every KB clause (each term's
// kind and its name or number bits), the positives and the negatives.
// Symbol ids are part of the output because wire payloads carry them raw,
// so each generator runs in a fresh process — the test binary re-executed —
// whose symbol table holds only package-init symbols. Regenerate with
// UPDATE_GOLDEN=1 after an intentional change to a generator.
func TestGeneratedDatasetsPinned(t *testing.T) {
	if name := os.Getenv(pinChildEnv); name != "" {
		for _, g := range pinnedGenerators {
			if g.name == name {
				first := logic.NumSymbols()
				fmt.Printf("pin %s %s\n", name, pinDigest(g.gen(), first))
				return
			}
		}
		t.Fatalf("no generator %q", name)
	}
	const golden = "testdata/generated.golden"
	var b strings.Builder
	for _, g := range pinnedGenerators {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGeneratedDatasetsPinned$")
		cmd.Env = append(os.Environ(), pinChildEnv+"="+g.name)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", g.name, err, out)
		}
		line, ok := "", false
		for _, l := range strings.Split(string(out), "\n") {
			if line, ok = strings.CutPrefix(l, "pin "); ok {
				break
			}
		}
		if !ok {
			t.Fatalf("%s: child printed no digest:\n%s", g.name, out)
		}
		b.WriteString(line + "\n")
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("generated datasets drifted from %s.\nGot:\n%sWant:\n%sIf intentional, regenerate with UPDATE_GOLDEN=1.", golden, b.String(), want)
	}
}

// pinDigest renders a generated dataset as "sha256 syms=… clauses=… pos=…
// neg=…", hashing the symbols interned from id first on, then the KB, the
// positives and the negatives.
func pinDigest(ds *Dataset, first int) string {
	var buf []byte
	syms := logic.NumSymbols() - first
	for s := first; s < logic.NumSymbols(); s++ {
		buf = append(buf, logic.Symbol(s).Name()...)
		buf = append(buf, 0)
	}
	clauses := ds.KB.AllClauses()
	buf = binary.AppendUvarint(buf, uint64(len(clauses)))
	for _, c := range clauses {
		buf = appendPinTerm(buf, c.Head)
		buf = binary.AppendUvarint(buf, uint64(len(c.Body)))
		for _, l := range c.Body {
			if l.Neg {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = appendPinTerm(buf, l.Atom)
		}
	}
	for _, ex := range [][]logic.Term{ds.Pos, ds.Neg} {
		buf = binary.AppendUvarint(buf, uint64(len(ex)))
		for _, e := range ex {
			buf = appendPinTerm(buf, e)
		}
	}
	return fmt.Sprintf("%x syms=%d clauses=%d pos=%d neg=%d", sha256.Sum256(buf), syms, len(clauses), len(ds.Pos), len(ds.Neg))
}

// appendPinTerm appends t's kind, then its name (atoms and compounds),
// variable index or number bits. Names, not ids: the symbol list hashed
// first already fixes the ids the generator handed out, and ids below it
// depend only on which packages the binary links.
func appendPinTerm(buf []byte, t logic.Term) []byte {
	buf = append(buf, byte(t.Kind))
	switch t.Kind {
	case logic.Atom, logic.Compound:
		buf = append(buf, t.Sym.Name()...)
		buf = append(buf, 0)
	case logic.Var:
		buf = binary.AppendUvarint(buf, uint64(t.Sym))
	case logic.Int, logic.Float:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Num))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Args)))
	for _, a := range t.Args {
		buf = appendPinTerm(buf, a)
	}
	return buf
}
