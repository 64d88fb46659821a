package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bottom"
	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
	"repro/internal/wire"
)

// testPayloads builds one representative payload per message kind, keyed
// by the kind that carries it, so adding a kind without extending this
// table fails the kind-count check in the round-trip test. The round-trip,
// robustness, fuzz and golden-frame tests and the per-kind encode/decode
// benchmarks share it.
func testPayloads() map[int]any {
	mustTerm := logic.MustParseTerm
	rule := logic.Clause{
		Head: mustTerm("active(X)"),
		Body: []logic.Literal{
			logic.Lit(mustTerm("atm(X, Y, oxygen)")),
			logic.NegLit(mustTerm("charged(Y)")),
		},
	}
	bot := bottom.Bottom{
		Example:  mustTerm("active(m1)"),
		Head:     mustTerm("active(A)"),
		Lits:     []logic.Literal{logic.Lit(mustTerm("atm(A, B, oxygen)"))},
		Info:     []bottom.LitInfo{{InVars: []int32{0}, OutVars: []int32{1}, Depth: 1}},
		HeadVars: []int32{0},
		NumVars:  2,
	}
	return map[int]any{
		kindLoad: loadDataMsg{
			Round:   1,
			HasData: true,
			Pos:     []logic.Term{mustTerm("active(m1)"), mustTerm("active(m2)")},
			Neg:     []logic.Term{mustTerm("active(m3)")},
			Width:   10,
			Search:  search.Settings{MaxClauseLen: 3, NodesLimit: 500, MinPos: 1, MinPrec: 0.7, W: 10}.WithDefaults(),
			Bottom:  bottom.Options{VarDepth: 2, MaxLiterals: 64, MaxRecall: 32},
			Budget:  solve.Budget{MaxDepth: 32, MaxInferences: 1 << 16},

			Checkpoint:    true,
			OrphanTimeout: 30 * time.Second,
		},
		kindStartPipeline: startMsg{tag: tag{Gen: 1}, Width: 10},
		kindStage: stageMsg{
			Origin: 2,
			Step:   3,
			Bottom: bot,
			Seeds:  []wireRule{{Indices: []int32{0}}, {Indices: []int32{0, 0}}},
		},
		kindRules:       rulesMsg{Origin: 1, Rules: []logic.Clause{rule}},
		kindEvaluate:    evaluateMsg{Rules: []logic.Clause{rule}},
		kindEvalResult:  evalResultMsg{Worker: 2, Pos: []int32{3, 0}, Neg: []int32{1, 2}},
		kindMarkCovered: markCoveredMsg{Rule: rule},
		kindAdopt:       adoptMsg{},
		kindAdopted:     adoptedMsg{Worker: 1, Ok: true, Example: mustTerm("active(m9)")},
		kindStop:        stopMsg{Gen: 1},
		kindGather:      gatherMsg{},
		kindGathered:    gatheredMsg{Worker: 2, Pos: []logic.Term{mustTerm("active(m4)")}, Costs: []int64{7}, Inferences: 4242, BusyNs: 991100},
		kindFinal: finalMsg{
			Worker:     2,
			Inferences: 12345,
			Generated:  67,
			Clock:      987654321,
			Traffic: cluster.Traffic{
				N:     3,
				Bytes: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8},
				Msgs:  []int64{0, 0, 1, 1, 0, 2, 2, 0, 3},
			},
		},
		kindReassign: reassignMsg{
			tag:           tag{Epoch: 7, Seq: 42},
			Members:       []int{1, 3},
			Pos:           []logic.Term{mustTerm("active(m6)")},
			Neg:           []logic.Term{mustTerm("active(m7)")},
			Replace:       true,
			RollbackBelow: 6,
		},
		kindReassignAck: reassignAckMsg{tag: tag{Epoch: 7, Seq: 9}, Worker: 3, Alive: 5},
		kindSuspect:     suspectMsg{tag: tag{Epoch: 7, Seq: 10}, Worker: 1, Peer: 2},
		kindWelcome: welcomeMsg{
			tag:     tag{Epoch: 8, Seq: 11},
			Members: []int{1, 2, 3},
			Load: loadDataMsg{
				HasData: true,
				Width:   10,
				Search:  search.Settings{MaxClauseLen: 3, NodesLimit: 500, MinPos: 1, MinPrec: 0.7, W: 10}.WithDefaults(),
				Bottom:  bottom.Options{VarDepth: 2, MaxLiterals: 64, MaxRecall: 32},
				Budget:  solve.Budget{MaxDepth: 32, MaxInferences: 1 << 16},
				Balance: true,
			},
		},
		kindResumeQuery: resumeQueryMsg{tag: tag{Epoch: 9, Seq: 14, Gen: 2}},
		kindResumeInfo:  resumeInfoMsg{tag: tag{Epoch: 11, Seq: 15, Gen: 2}, Worker: 2, Loaded: true, Reconnects: 1},
		kindFenced:      fencedMsg{tag: tag{Epoch: 12, Seq: 16, Gen: 3}, Worker: 1},
	}
}

// sortedKinds returns the payload table's kinds in protocol order so
// subtests and benchmarks enumerate deterministically.
func sortedKinds(payloads map[int]any) []int {
	kinds := make([]int, 0, len(payloads))
	for k := range payloads {
		kinds = append(kinds, k)
	}
	sort.Ints(kinds)
	return kinds
}

// mustSeal encodes v exactly as Send does.
func mustSeal(t testing.TB, v any) []byte {
	t.Helper()
	enc, err := cluster.EncodePayload(v)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	return enc
}

// gobEncode is the test-only reference encoder: encoding/gob carried the
// protocol payloads before internal/wire did, and the wire format was
// pinned value-for-value against it. No shipped path encodes a payload
// this way.
func gobEncode(t testing.TB, v any) []byte {
	t.Helper()
	val := reflect.ValueOf(v)
	if shape := gobShape(val.Type()); shape != val.Type() {
		flat := reflect.New(shape).Elem()
		for i := range shape.NumField() {
			flat.Field(i).Set(val.FieldByName(shape.Field(i).Name))
		}
		v = flat.Interface()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("%T: gob encode: %v", v, err)
	}
	return buf.Bytes()
}

// gobRoundTrip ships v through the reference encoder and back.
func gobRoundTrip(t testing.TB, v any) any {
	t.Helper()
	typ := reflect.TypeOf(v)
	shape := gobShape(typ)
	out := reflect.New(shape)
	if err := gob.NewDecoder(bytes.NewReader(gobEncode(t, v))).Decode(out.Interface()); err != nil {
		t.Fatalf("%T: gob decode: %v", v, err)
	}
	back := reflect.New(typ).Elem()
	for i := range shape.NumField() {
		back.FieldByName(shape.Field(i).Name).Set(out.Elem().Field(i))
	}
	return back.Interface()
}

// gobShape is the struct gob is given for a message type. gob skips an
// embedded unexported type, so a message that opens with tag has the
// header's fields spelled out in its place; any other type is its own.
func gobShape(typ reflect.Type) reflect.Type {
	if f, ok := typ.FieldByName("tag"); !ok || !f.Anonymous {
		return typ
	}
	var fields []reflect.StructField
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Anonymous {
			fields = append(fields, reflect.VisibleFields(f.Type)...)
		} else {
			fields = append(fields, f)
		}
	}
	return reflect.StructOf(fields)
}

// TestMessageWireRoundTrip pins the payload encoding: every payload type
// of every message kind must survive it unchanged, and decode to exactly
// the value the gob reference yields for the same input.
func TestMessageWireRoundTrip(t *testing.T) {
	payloads := testPayloads()
	const retired = 3 // kinds 12, 18 and 19 are `_` placeholders in messages.go
	if got, want := len(payloads), kindFenced+1-retired; got != want {
		t.Fatalf("payload table covers %d kinds, protocol has %d — extend the table", got, want)
	}

	for _, kind := range sortedKinds(payloads) {
		v := payloads[kind]
		msg := cluster.Message{Kind: kind, Payload: mustSeal(t, v)}
		out := reflect.New(reflect.TypeOf(v))
		if err := msg.Decode(out.Interface()); err != nil {
			t.Fatalf("kind %d: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), v) {
			t.Errorf("kind %d round trip mismatch:\n got: %#v\nwant: %#v", kind, out.Elem().Interface(), v)
		}
		if ref := gobRoundTrip(t, v); !reflect.DeepEqual(out.Elem().Interface(), ref) {
			t.Errorf("kind %d: wire decode differs from the gob reference:\n got: %#v\nwant: %#v", kind, out.Elem().Interface(), ref)
		}
	}
}

// goldenFrames seals every test payload at package initialisation, before
// any test has interned a symbol: payload bytes carry interned symbol
// indices, so only frames built on the start-up symbol table come out the
// same whichever tests ran first. One "kindNN hex" line per message kind.
var goldenFrames = func() string {
	var b strings.Builder
	payloads := testPayloads()
	for _, kind := range sortedKinds(payloads) {
		enc, err := cluster.EncodePayload(payloads[kind])
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "kind%02d %x\n", kind, enc)
	}
	return b.String()
}()

// TestWireGoldenFrames pins the payload bytes of every message kind
// against a committed corpus (bench/golden.json only pins run totals), so
// a format drift fails here; with TestMessageWireRoundTrip it follows that
// the committed frames still decode. Regenerate with UPDATE_GOLDEN=1 after
// an intentional format change — which is also a protocolVersion bump in
// netcluster.
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

// TestEpochOnlyPartialDecode pins the header-peek path the master's
// dispatch loop uses: an epochOnly decode of any full worker reply must
// yield the reply's epoch, whatever the payload's tail holds.
func TestEpochOnlyPartialDecode(t *testing.T) {
	for _, v := range []any{
		evalResultMsg{tag: tag{Epoch: 9}, Worker: 2, Pos: []int32{3}},
		adoptedMsg{tag: tag{Epoch: 17}, Worker: 1, Ok: true, Example: logic.MustParseTerm("active(m9)")},
		gatheredMsg{tag: tag{Epoch: 23}, Worker: 2, Inferences: 42},
		reassignAckMsg{tag: tag{Epoch: 31, Seq: 9}, Worker: 3},
	} {
		var eo epochOnly
		if err := cluster.DecodePayload(mustSeal(t, v), &eo); err != nil {
			t.Fatalf("%T: epoch peek: %v", v, err)
		}
		want := reflect.ValueOf(v).FieldByName("Epoch").Int()
		if int64(eo.Epoch) != want {
			t.Fatalf("%T: peeked epoch %d, want %d", v, eo.Epoch, want)
		}
	}
}

// TestWireDecodeRobustness drags every message kind's encoding through
// systematic damage: all truncation points and all single-byte
// corruptions. The decoder must survive each one — an error is fine, a
// panic or a runaway allocation is not.
func TestWireDecodeRobustness(t *testing.T) {
	for _, kind := range sortedKinds(testPayloads()) {
		v := testPayloads()[kind]
		enc := mustSeal(t, v)
		typ := reflect.TypeOf(v)
		decode := func(data []byte) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("kind %d: decode panicked on damaged frame: %v", kind, p)
				}
			}()
			_ = cluster.DecodePayload(data, reflect.New(typ).Interface())
		}
		for cut := 0; cut < len(enc); cut++ {
			decode(enc[:cut])
		}
		garbled := append([]byte(nil), enc...)
		for i := range garbled {
			orig := garbled[i]
			garbled[i] ^= 0xff
			decode(garbled)
			garbled[i] = orig
		}
	}
}

// FuzzWireRoundTrip pins the wire codec against the gob reference at the
// byte level for every message kind: any frame the wire decoder accepts
// must re-encode to a fixed point, and a gob round trip of the decoded
// value must re-encode to the same wire bytes. Comparing encodings rather
// than values keeps NaN-carrying floats (DeepEqual-hostile, bit-preserved
// by both encoders) honest.
func FuzzWireRoundTrip(f *testing.F) {
	payloads := testPayloads()
	for _, kind := range sortedKinds(payloads) {
		f.Add(kind, mustSeal(f, payloads[kind]))
	}
	// The table holds one payload per kind; the install message has two
	// deals and the welcome two shapes, so seed the other of each too.
	term := logic.MustParseTerm
	f.Add(kindReassign, mustSeal(f, reassignMsg{tag: tag{Epoch: 3, Seq: 5}, Members: []int{1, 2}, Pos: []logic.Term{term("active(m6)")}, Neg: []logic.Term{term("active(m7)")}}))
	f.Add(kindReassign, mustSeal(f, reassignMsg{tag: tag{Epoch: 4, Seq: 6, Gen: 1}, Members: []int{1, 2, 3}, Replace: true}))
	f.Add(kindWelcome, mustSeal(f, welcomeMsg{tag: tag{Epoch: 4, Seq: 7}, Members: []int{1, 2, 3}})) // simulation: zero Load
	f.Fuzz(func(t *testing.T, kind int, data []byte) {
		proto, ok := payloads[kind]
		if !ok {
			return
		}
		typ := reflect.TypeOf(proto)
		out := reflect.New(typ)
		if err := cluster.DecodePayload(data, out.Interface()); err != nil {
			return
		}
		v := out.Elem().Interface()
		enc1 := mustSeal(t, v)
		out2 := reflect.New(typ)
		if err := cluster.DecodePayload(enc1, out2.Interface()); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(enc1, mustSeal(t, out2.Elem().Interface())) {
			t.Fatalf("wire encoding is not a fixed point for kind %d", kind)
		}
		// Ship the same value through the reference encoder and back; it
		// must carry the identical information, i.e. re-encode to enc1.
		if !bytes.Equal(enc1, mustSeal(t, gobRoundTrip(t, v))) {
			t.Fatalf("gob round trip changed the value for kind %d", kind)
		}
	})
}

// bulkLoadMsg builds a kindLoad shipment at realistic scale: the paper's
// smaller datasets ship hundreds of examples per worker in one frame.
func bulkLoadMsg(n int) loadDataMsg {
	pos := make([]logic.Term, n)
	neg := make([]logic.Term, n*3/4)
	for i := range pos {
		pos[i] = logic.MustParseTerm(fmt.Sprintf("active(mol_p%d)", i))
	}
	for i := range neg {
		neg[i] = logic.MustParseTerm(fmt.Sprintf("active(mol_n%d)", i))
	}
	return loadDataMsg{
		Round:         1,
		HasData:       true,
		Pos:           pos,
		Neg:           neg,
		Width:         10,
		Search:        search.Settings{MaxClauseLen: 4, NodesLimit: 5000, MinPos: 2, MinPrec: 0.7, W: 10}.WithDefaults(),
		Bottom:        bottom.Options{VarDepth: 3, MaxLiterals: 64, MaxRecall: 32},
		Budget:        solve.Budget{MaxDepth: 64, MaxInferences: 1 << 20},
		Checkpoint:    true,
		OrphanTimeout: 30 * time.Second,
	}
}

// TestWireLoadFrameShrinks pins the headline win the codec was built
// for: a kindLoad-class bulk shipment must be at least 3x smaller (varints
// + interned symbols + flate) than the gob reference encodes it.
func TestWireLoadFrameShrinks(t *testing.T) {
	lm := bulkLoadMsg(500)
	gobEnc := gobEncode(t, lm)
	wireEnc := mustSeal(t, lm)
	t.Logf("kindLoad %d examples: gob=%d bytes, wire=%d bytes (%.1fx)",
		len(lm.Pos)+len(lm.Neg), len(gobEnc), len(wireEnc), float64(len(gobEnc))/float64(len(wireEnc)))
	if len(gobEnc) < 3*len(wireEnc) {
		t.Fatalf("wire kindLoad frame %d bytes, gob %d: want >= 3x reduction", len(wireEnc), len(gobEnc))
	}
	// And it still round-trips exactly.
	var out loadDataMsg
	if err := cluster.DecodePayload(wireEnc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, lm) {
		t.Fatal("bulk kindLoad round trip mismatch")
	}
}

// TestSimLoadMsgDecodesAsLoadData pins the cross-shape compatibility the
// remote worker relies on being ABSENT: the simulation's loadMsg and the
// network loadDataMsg share the kindLoad tag, distinguished by the
// worker's remote flag. A sim-shaped load reaching a remote worker must
// not be taken for a partition: it either fails to decode or decodes
// without HasData, which loadRemote rejects.
func TestSimLoadMsgDecodesAsLoadData(t *testing.T) {
	msg := cluster.Message{Kind: kindLoad, Payload: mustSeal(t, loadMsg{Round: 3})}
	var ld loadDataMsg
	if err := msg.Decode(&ld); err != nil {
		return
	}
	if ld.HasData {
		t.Fatalf("decoded %+v from a partitionless load", ld)
	}
	w := &worker{id: 1, remote: true}
	if err := w.loadRemote(&ld); err == nil {
		t.Fatal("loadRemote accepted a partitionless load")
	}
}

// TestSimLoadMessageShapeUnchanged pins the simulated transport's kindLoad
// shape: adding a field to loadMsg — rather than to the network-only
// loadDataMsg — would grow every simulated run's kindLoad bytes and shift
// its byte and virtual-time accounting, which are part of the reproduced
// results.
func TestSimLoadMessageShapeUnchanged(t *testing.T) {
	typ := reflect.TypeOf(loadMsg{})
	if typ.NumField() != 1 || typ.Field(0).Name != "Round" || typ.Field(0).Type.Kind() != reflect.Int {
		t.Fatalf("loadMsg shape changed (%d fields) — partition shipping belongs in loadDataMsg", typ.NumField())
	}
}

// BenchmarkEncode measures per-kind encode cost; the bytes/op metric is
// the sealed payload size.
func BenchmarkEncode(b *testing.B) {
	payloads := testPayloads()
	payloads[kindLoad] = bulkLoadMsg(500) // bench the bulk shipment at scale
	for _, kind := range sortedKinds(payloads) {
		v := payloads[kind]
		b.Run(fmt.Sprintf("kind%02d", kind), func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(mustSeal(b, v))
			}
			b.ReportMetric(float64(n), "bytes/op")
		})
	}
}

// BenchmarkDecode measures per-kind decode cost.
func BenchmarkDecode(b *testing.B) {
	payloads := testPayloads()
	payloads[kindLoad] = bulkLoadMsg(500)
	for _, kind := range sortedKinds(payloads) {
		enc := mustSeal(b, payloads[kind])
		typ := reflect.TypeOf(payloads[kind])
		b.Run(fmt.Sprintf("kind%02d", kind), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(enc)), "bytes/op")
			for i := 0; i < b.N; i++ {
				if err := cluster.DecodePayload(enc, reflect.New(typ).Interface()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// strategyByteAt returns the offset in b of the reserved byte that once
// held the search strategy, inside s's encoding, which must occur in b
// exactly once.
func strategyByteAt(t *testing.T, b []byte, s search.Settings) int {
	t.Helper()
	var enc wire.Writer
	appendSettings(&enc, s)
	at := bytes.Index(b, enc.B)
	if at < 0 || bytes.Contains(b[at+1:], enc.B) {
		t.Fatalf("settings encoding found %d times, want once", bytes.Count(b, enc.B))
	}
	var lead wire.Writer // the fields before it: four settings, W, the heuristic byte
	lead.Int(s.MaxClauseLen)
	lead.Int(s.NodesLimit)
	lead.Int(s.MinPos)
	lead.F64(s.MinPrec)
	lead.Int(s.W)
	lead.Byte(0)
	return at + len(lead.B)
}

// TestReservedStrategyByteRefused: a peer or a checkpoint from a build with
// best-first search encodes its choice in the reserved strategy byte.
// Decoding it under breadth-first would silently learn another theory, so
// both a sealed kindLoad frame and a checkpoint payload carrying a non-zero
// byte there must be refused by name.
func TestReservedStrategyByteRefused(t *testing.T) {
	lm := testPayloads()[kindLoad].(loadDataMsg)
	body, err := wire.Decompress(mustSeal(t, lm))
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{0}, body...) // re-sealed raw: envelope flag 0
	var ok loadDataMsg
	if err := cluster.DecodePayload(frame, &ok); err != nil {
		t.Fatalf("unpatched load frame: %v", err)
	}
	frame[strategyByteAt(t, frame, lm.Search)] = 1
	var got loadDataMsg
	if err := cluster.DecodePayload(frame, &got); err == nil || !strings.Contains(err.Error(), "search strategy 1") {
		t.Errorf("load frame with strategy byte 1: got %v, want an error naming the search strategy", err)
	}

	rec := sampleCheckpointRecord()
	payload := rec.encode()
	payload[strategyByteAt(t, payload, rec.Load.Search)] = 1
	if _, err := decodeCheckpoint(payload); err == nil || !strings.Contains(err.Error(), "search strategy 1") {
		t.Errorf("checkpoint with strategy byte 1: got %v, want an error naming the search strategy", err)
	}
}
