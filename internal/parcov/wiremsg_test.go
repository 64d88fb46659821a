package parcov

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// parcovPayloads is the coverage protocol's counterpart of core's
// testPayloads: one representative payload per message kind, so the
// round-trip tests fail on any kind added without a wire encoding.
func parcovPayloads() map[int]any {
	mustTerm := logic.MustParseTerm
	rule := logic.Clause{
		Head: mustTerm("active(X)"),
		Body: []logic.Literal{logic.Lit(mustTerm("atm(X, Y, oxygen)"))},
	}
	return map[int]any{
		kindRetractRule: retractRuleMsg{Rule: rule},
		kindRetractOne:  retractOneMsg{Example: mustTerm("active(m7)")},
		kindStop:        stopMsg{},
		kindEvalBatch: evalBatchMsg{
			Seq:      9,
			Rules:    []logic.Clause{rule, {Head: mustTerm("active(Y)")}},
			PosCands: [][]uint64{{0xff}, nil},
			NegCands: [][]uint64{{1, 2}, nil},
			HasCand:  []bool{true, false},
		},
		kindEvalBatchResult: evalBatchResultMsg{
			Seq:    9,
			Worker: 2,
			Pos:    [][]uint64{{0x07}, {0}},
			Neg:    [][]uint64{{0}, {0x70}},
		},
	}
}

// retiredKinds are the `_` placeholders in parcov.go's kind list: they have
// no payload and no golden frame, and a worker refuses them.
var retiredKinds = map[int]bool{5: true, 6: true}

// TestParcovWireRoundTrip pins every parcov message kind: the wire decode
// must reproduce the value exactly, and exactly what the test-only gob
// reference (the payload encoding before internal/wire) yields for it.
func TestParcovWireRoundTrip(t *testing.T) {
	payloads := parcovPayloads()
	for kind := kindRetractRule; kind <= kindEvalBatchResult; kind++ {
		if retiredKinds[kind] {
			continue
		}
		v, ok := payloads[kind]
		if !ok {
			t.Fatalf("payload table has no kind %d — extend the table", kind)
		}
		enc, err := cluster.EncodePayload(v)
		if err != nil {
			t.Fatalf("kind %d: encode: %v", kind, err)
		}
		out := reflect.New(reflect.TypeOf(v))
		msg := cluster.Message{Kind: kind, Payload: enc}
		if err := msg.Decode(out.Interface()); err != nil {
			t.Fatalf("kind %d: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), v) {
			t.Errorf("kind %d round trip mismatch:\n got: %#v\nwant: %#v", kind, out.Elem().Interface(), v)
		}
		var buf bytes.Buffer
		ref := reflect.New(reflect.TypeOf(v))
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("kind %d: gob encode: %v", kind, err)
		}
		if err := gob.NewDecoder(&buf).Decode(ref.Interface()); err != nil {
			t.Fatalf("kind %d: gob decode: %v", kind, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), ref.Elem().Interface()) {
			t.Errorf("kind %d: wire decode differs from the gob reference:\n got: %#v\nwant: %#v", kind, out.Elem().Interface(), ref.Elem().Interface())
		}
	}
}

// goldenFrames seals every test payload at package initialisation, before
// any test has interned a symbol: payload bytes carry interned symbol
// indices, so only frames built on the start-up symbol table come out the
// same whichever tests ran first. One "kindNN hex" line per message kind.
var goldenFrames = func() string {
	var b strings.Builder
	payloads := parcovPayloads()
	for kind := kindRetractRule; kind <= kindEvalBatchResult; kind++ {
		if retiredKinds[kind] {
			continue
		}
		enc, err := cluster.EncodePayload(payloads[kind])
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "kind%02d %x\n", kind, enc)
	}
	return b.String()
}()

// TestWireGoldenFrames pins the payload bytes of every parcov message kind
// against a committed corpus; with TestParcovWireRoundTrip it follows that
// the committed frames still decode. Regenerate with UPDATE_GOLDEN=1 after
// an intentional format change.
func TestWireGoldenFrames(t *testing.T) {
	const golden = "testdata/wire_frames.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(goldenFrames), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if goldenFrames != string(want) {
		t.Fatalf("payload bytes drifted from %s.\nGot:\n%sWant:\n%sIf intentional, regenerate with UPDATE_GOLDEN=1.", golden, goldenFrames, want)
	}
}

// TestRetiredKindsRefused hands a worker built with its partition each
// retired kind: it must fail on "unknown kind", never decode the frame as
// what the number used to carry.
func TestRetiredKindsRefused(t *testing.T) {
	for kind := range retiredKinds {
		nw := cluster.NewNetwork(2, cluster.CostModel{})
		m := solve.NewMachine(solve.NewKB(), solve.Budget{})
		ex := search.NewExamples(nil, nil)
		w := &pcWorker{id: 1, node: nw.Node(1), m: m, ex: ex, ev: search.NewEvaluator(m, ex)}
		// The trailing stop makes a worker that accepts the frame return nil
		// instead of blocking.
		if err := nw.Node(0).Send(1, kind, stopMsg{}); err != nil {
			t.Fatal(err)
		}
		if err := nw.Node(0).Send(1, kindStop, stopMsg{}); err != nil {
			t.Fatal(err)
		}
		if err := w.run(); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("kind %d: worker returned %v, want an unknown-kind error", kind, err)
		}
	}
}
