package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/solve"
)

// proofFixture builds a deterministic proof covering every node kind: rule
// resolution, fact leaves, a builtin and negation as failure.
func proofFixture(t *testing.T) *solve.ProofStep {
	t.Helper()
	kb := solve.NewKB()
	if err := kb.AddSource(`
		parent(ann, bob). parent(bob, cat).
		age(cat, 3).
		blocked(dee).
		anc(X, Y) :- parent(X, Y).
		anc(X, Y) :- parent(X, Z), anc(Z, Y).
	`); err != nil {
		t.Fatal(err)
	}
	parsed, err := logic.ParseClause(
		"young_desc(X, Y) :- anc(X, Y), age(Y, N), N < 5, \\+ blocked(Y).")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := logic.ParseTerm("young_desc(ann, cat)")
	if err != nil {
		t.Fatal(err)
	}
	m := solve.NewMachine(kb, solve.DefaultBudget)
	proof, ok := m.ProveExample(&parsed, ex)
	if !ok {
		t.Fatal("fixture proof failed")
	}
	return proof
}

// TestProofJSONGolden pins the stable JSON encoding of proof trees — the
// wire contract of /classify responses. Regenerate with UPDATE_GOLDEN=1
// after an intentional shape change (and bump ProofJSONVersion).
func TestProofJSONGolden(t *testing.T) {
	proof := proofFixture(t)
	got := string(AppendProofJSON(nil, proof, 0)) + "\n"
	golden := filepath.Join("testdata", "proof.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("proof JSON drifted from golden %s.\nGot:\n%s\nWant:\n%s\nIf intentional, regenerate with UPDATE_GOLDEN=1 and bump ProofJSONVersion.",
			golden, got, want)
	}
}

func TestProofText(t *testing.T) {
	text := ProofText(proofFixture(t))
	for _, want := range []string{
		"young_desc(ann, cat)  [rule ",
		"parent(ann, bob)  [fact]",
		"3 < 5  [builtin]",
		"\\+ blocked(cat)  [naf]",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("proof text missing %q:\n%s", want, text)
		}
	}
	// Indentation must reflect tree depth: fact leaves sit under the anc
	// subtree, two levels below the root.
	if !strings.Contains(text, "\n    parent(ann, bob)") {
		t.Fatalf("expected indented fact leaf:\n%s", text)
	}
}

// TestAppendProofJSONEmbeds checks the depth parameter: a proof appended at
// depth d inside a larger document is what json.MarshalIndent writes for the
// schema struct with a prefix of d indents.
func TestAppendProofJSONEmbeds(t *testing.T) {
	proof := proofFixture(t)
	for depth := 0; depth <= 20; depth += 5 {
		want, err := json.MarshalIndent(NewProofNode(proof), strings.Repeat("  ", depth), "  ")
		if err != nil {
			t.Fatal(err)
		}
		got := AppendProofJSON([]byte(`"proof": `), proof, depth)
		if string(got) != `"proof": `+string(want) {
			t.Fatalf("depth %d:\ngot:\n%s\nwant:\n%s", depth, got, want)
		}
	}
}
