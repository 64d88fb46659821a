package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
)

// testMsg exercises every primitive the message encoders use, in a fixed
// field order, so the fuzz harness and the error tables below cover the
// same decode paths the real protocol does.
type testMsg struct {
	A  int
	B  int64
	U  uint64
	F  float64
	OK bool
	S  string
	I3 []int32
	I6 []int64
	IS []int
	W  []uint64
	BS []bool
	T  logic.Term
	TS []logic.Term
	L  logic.Literal
	LS []logic.Literal
	C  logic.Clause
	CS []logic.Clause
}

func (m testMsg) AppendWire(w *Writer) {
	w.Int(m.A)
	w.Varint(m.B)
	w.Uvarint(m.U)
	w.F64(m.F)
	w.Bool(m.OK)
	w.String(m.S)
	w.I32s(m.I3)
	w.I64s(m.I6)
	w.Ints(m.IS)
	w.U64sFixed(m.W)
	w.Bools(m.BS)
	w.Term(m.T)
	w.Terms(m.TS)
	w.Literal(m.L)
	w.Literals(m.LS)
	w.Clause(m.C)
	w.Clauses(m.CS)
}

func (m *testMsg) DecodeWire(r *Reader) {
	m.A = r.Int()
	m.B = r.Varint()
	m.U = r.Uvarint()
	m.F = r.F64()
	m.OK = r.Bool()
	m.S = r.String()
	m.I3 = r.I32s()
	m.I6 = r.I64s()
	m.IS = r.Ints()
	m.W = r.U64sFixed()
	m.BS = r.Bools()
	m.T = r.Term()
	m.TS = r.Terms()
	m.L = r.Literal()
	m.LS = r.Literals()
	m.C = r.Clause()
	m.CS = r.Clauses()
}

func sampleMsg() testMsg {
	mustTerm := logic.MustParseTerm
	rule := logic.Clause{
		Head: mustTerm("active(X)"),
		Body: []logic.Literal{
			logic.Lit(mustTerm("atm(X, Y, oxygen)")),
			logic.NegLit(mustTerm("charged(Y)")),
		},
	}
	return testMsg{
		A:  -42,
		B:  1 << 40,
		U:  math.MaxUint64,
		F:  3.14159,
		OK: true,
		S:  "théory",
		I3: []int32{0, -1, math.MaxInt32, math.MinInt32},
		I6: []int64{math.MinInt64, 0, math.MaxInt64},
		IS: []int{7, -7},
		W:  []uint64{0, ^uint64(0), 0xdeadbeefcafef00d},
		BS: []bool{true, false, true},
		T:  mustTerm("f(g(X, 3), -2.5, h)"),
		TS: []logic.Term{mustTerm("active(m1)"), {Kind: logic.Int, Num: 0.5}},
		L:  logic.NegLit(mustTerm("charged(Y)")),
		LS: rule.Body,
		C:  rule,
		CS: []logic.Clause{rule, {Head: mustTerm("ok")}},
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	in := sampleMsg()
	payload := Seal(in)
	var out testMsg
	if err := Unseal(payload, &out); err != nil {
		t.Fatalf("unseal: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n got: %#v\nwant: %#v", out, in)
	}
}

// TestEmptySlicesDecodeNil pins the gob-parity rule the codec comment
// promises: empty slices encode as length 0 and come back nil, exactly
// what a gob round trip of an omitted field yields.
func TestEmptySlicesDecodeNil(t *testing.T) {
	in := testMsg{I3: []int32{}, TS: []logic.Term{}, CS: []logic.Clause{}}
	var out testMsg
	if err := Unseal(Seal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.I3 != nil || out.TS != nil || out.CS != nil {
		t.Fatalf("empty slices decoded non-nil: %#v", out)
	}
}

// TestTermTags pins every term tag's round trip, including the two
// integer encodings (exact int64 varint vs raw IEEE bits).
func TestTermTags(t *testing.T) {
	for _, tc := range []logic.Term{
		{},
		{Kind: logic.Var, Sym: 3},
		{Kind: logic.Atom, Sym: 7},
		{Kind: logic.Int, Num: -12345},
		{Kind: logic.Int, Num: 0.5}, // not an exact int64: ships raw bits
		{Kind: logic.Int, Num: 1e308},
		{Kind: logic.Float, Num: math.Inf(-1)},
		logic.MustParseTerm("f(g(h(X)), atom, 9)"),
	} {
		var w Writer
		w.Term(tc)
		r := NewReader(w.B)
		got := r.Term()
		if r.Err() != nil {
			t.Fatalf("term %v: decode: %v", tc, r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("term %v: %d trailing bytes", tc, r.Remaining())
		}
		if !reflect.DeepEqual(got, tc) {
			t.Fatalf("term round trip: got %#v want %#v", got, tc)
		}
	}
}

// TestDecodeErrors is the table of garbled and truncated frames: each
// must fail loudly with the right error class, and none may panic or
// over-allocate.
func TestDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte // reader body (no envelope)
		read func(r *Reader)
		want error
	}{
		{"byte past end", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }, ErrCorrupt},
		{"uvarint cut mid-value", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"uvarint overflow", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, ErrCorrupt},
		{"varint cut mid-value", []byte{0xc0}, func(r *Reader) { r.Varint() }, ErrTruncated},
		{"fixed64 short", []byte{1, 2, 3}, func(r *Reader) { r.Fixed64() }, ErrTruncated},
		{"string length past end", []byte{0x05, 'h', 'i'}, func(r *Reader) { _ = r.String() }, ErrTruncated},
		// 2^32 elements claimed in a 6-byte body: the sliceLen guard must
		// reject it before allocating anything.
		{"huge slice claim", append([]byte{0x80, 0x80, 0x80, 0x80, 0x10}, 1), func(r *Reader) { r.Ints() }, ErrTruncated},
		{"huge term arity", []byte{tCompound, 0x01, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.Term() }, ErrTruncated},
		{"unknown term tag", []byte{0x7f}, func(r *Reader) { r.Term() }, ErrCorrupt},
		{"literal bad neg byte", []byte{9, tAtom, 0x01}, func(r *Reader) { r.Literal() }, ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.body)
			tc.read(r)
			if !errors.Is(r.Err(), tc.want) {
				t.Fatalf("err = %v, want %v", r.Err(), tc.want)
			}
		})
	}
}

// TestEnvelopeErrors covers the frame-level failure modes: empty frames,
// unknown flags, inflate garbage, and trailing bytes after a full decode.
func TestEnvelopeErrors(t *testing.T) {
	if _, err := Decompress(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty frame: %v", err)
	}
	if _, err := Decompress([]byte{0x1f, 1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown flag: %v", err)
	}
	if _, err := Decompress([]byte{flagFlate, 0xde, 0xad}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inflate garbage: %v", err)
	}
	// A sealed frame with appended garbage must fail the trailing-bytes
	// check, not silently decode.
	payload := append(Seal(testMsg{}), 0x00)
	var out testMsg
	if err := Unseal(payload, &out); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}
}

// TestInflateBound pins the decompression-bomb guard: a flate frame that
// inflates past the bound is rejected as corrupt after reading at most the
// bound — never inflated whole — and one under it still opens.
func TestInflateBound(t *testing.T) {
	const limit, inflated = 1 << 20, 32 << 20
	var buf bytes.Buffer
	buf.WriteByte(flagFlate)
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(make([]byte, inflated)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decompress(bomb, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("frame inflating to %d bytes under a %d bound: %v", inflated, limit, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > inflated/4 {
		t.Fatalf("rejecting the frame allocated %d bytes — it was inflated, not bounded", got)
	}
	if body, err := decompress(bomb, inflated+1); err != nil || len(body) != inflated {
		t.Fatalf("frame under the bound: %d bytes, %v", len(body), err)
	}
	if maxInflate <= 256<<20 {
		t.Fatalf("maxInflate %d does not exceed netcluster's 256 MiB maxFrameBytes", maxInflate)
	}
}

// TestLatchedError pins the Reader contract decoders rely on: after the
// first failure every read returns a zero value and the original error
// survives.
func TestLatchedError(t *testing.T) {
	r := NewReader([]byte{2}) // bad bool
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("no error latched")
	}
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("read after error returned %d", v)
	}
	if s := r.String(); s != "" {
		t.Fatalf("read after error returned %q", s)
	}
	if r.Err() != first {
		t.Fatalf("latched error replaced: %v", r.Err())
	}
}

// TestCompressThreshold pins the envelope policy: small bodies ship raw,
// large compressible bodies ship flate-flagged and smaller, and both
// decompress back to the identical body.
func TestCompressThreshold(t *testing.T) {
	small := append([]byte{flagRaw}, bytes.Repeat([]byte{'x'}, CompressMin-2)...)
	if got := Compress(small); &got[0] != &small[0] {
		t.Fatal("sub-threshold body was not shipped raw")
	}
	big := append([]byte{flagRaw}, bytes.Repeat([]byte("abcdef"), CompressMin)...)
	z := Compress(big)
	if z[0] != flagFlate {
		t.Fatalf("big compressible body flag %#x, want flate", z[0])
	}
	if len(z) >= len(big) {
		t.Fatalf("compression grew the frame: %d >= %d", len(z), len(big))
	}
	body, err := Decompress(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, big[1:]) {
		t.Fatal("decompressed body differs")
	}
	// Determinism: the virtual clock charges encoded bytes, so the same
	// body must always seal to the same frame.
	if !bytes.Equal(z, Compress(big)) {
		t.Fatal("compression is not deterministic")
	}
}

// FuzzReader feeds arbitrary bytes through the full message decode path:
// whatever the input, the decoder must not panic, and anything it
// accepts must re-encode and decode to the same value (a fixed point).
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(Seal(sampleMsg()))
	f.Add(Seal(testMsg{}))
	f.Add([]byte{flagFlate, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m testMsg
		if err := Unseal(data, &m); err != nil {
			return
		}
		var again testMsg
		if err := Unseal(Seal(m), &again); err != nil {
			t.Fatalf("re-decode of accepted value failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decode not a fixed point:\n got: %#v\nwant: %#v", again, m)
		}
	})
}

// largeMsg is shaped like a realistic kindStage: a bottom clause of a
// few dozen literals plus W = 10 candidate rules drawn from it, well over
// CompressMin once encoded — the frame a pipeline hands on every stage.
func largeMsg() testMsg {
	mustTerm := logic.MustParseTerm
	bottom := logic.Clause{Head: mustTerm("active(A)")}
	for i := 0; i < 48; i++ {
		bottom.Body = append(bottom.Body,
			logic.Lit(mustTerm(fmt.Sprintf("atm(A, V%d, e%d, %d, %d.5)", i, i%7, 20+i%9, i-24))),
			logic.Lit(mustTerm(fmt.Sprintf("bond(A, V%d, V%d, %d)", i, (i+1)%48, 1+i%3))))
	}
	m := sampleMsg()
	m.C = bottom
	m.CS = nil
	for w := 0; w < 10; w++ {
		rule := logic.Clause{Head: bottom.Head}
		for j := 0; j < 3+w%3; j++ {
			rule.Body = append(rule.Body, bottom.Body[(7*w+5*j)%len(bottom.Body)])
		}
		m.CS = append(m.CS, rule)
		m.W = append(m.W, uint64(w)*0x9e3779b97f4a7c15, ^uint64(w))
	}
	return m
}

// rawPayload is m encoded behind a raw flag byte: what Seal hands to the
// envelope policy.
func rawPayload(m testMsg) []byte {
	w := Writer{B: []byte{flagRaw}}
	m.AppendWire(&w)
	return w.B
}

// freshFrame is the envelope policy on a flate.Writer built for this one
// frame: the reference the pooled writer must match byte for byte.
func freshFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	if len(payload)-1 < CompressMin {
		return payload
	}
	var zb bytes.Buffer
	zb.WriteByte(flagFlate)
	zw, err := flate.NewWriter(&zb, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload[1:]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if zb.Len() >= len(payload) {
		return payload
	}
	return zb.Bytes()
}

// TestCompressMatchesFreshWriter pins what lets the pool exist at all: a
// recycled flate.Writer emits exactly the frame a new one does, so no
// wire byte — and nothing the virtual clock derives from bytes — moves.
// The bodies alternate between compressible, incompressible and
// sub-threshold, and the sweep runs several times, so a writer that has
// already compressed something else is certainly the one in use.
func TestCompressMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var corpus [][]byte
	for _, m := range []testMsg{sampleMsg(), largeMsg()} {
		corpus = append(corpus, rawPayload(m))
	}
	for _, n := range []int{CompressMin - 1, CompressMin, CompressMin + 1, 3 * CompressMin, 64 * CompressMin} {
		noise := make([]byte, 1+n)
		rng.Read(noise[1:])
		text := make([]byte, 1+n)
		for i := 1; i < len(text); i++ {
			text[i] = "abcdefgh"[rng.Intn(3+i%5)]
		}
		corpus = append(corpus, noise, text)
	}
	for round := 0; round < 4; round++ {
		for i, payload := range corpus {
			want := freshFrame(t, payload)
			got := Compress(payload)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d body %d (%d bytes): pooled frame differs from a fresh writer's (%d vs %d bytes)",
					round, i, len(payload)-1, len(got), len(want))
			}
			body, err := Decompress(got)
			if err != nil || !bytes.Equal(body, payload[1:]) {
				t.Fatalf("round %d body %d: round trip: %v", round, i, err)
			}
		}
	}
	// Seal goes through the same state plus the pooled encode scratch.
	for round := 0; round < 3; round++ {
		for _, m := range []testMsg{largeMsg(), sampleMsg(), {}} {
			if got, want := Seal(m), freshFrame(t, rawPayload(m)); !bytes.Equal(got, want) {
				t.Fatalf("round %d: Seal differs from a fresh writer's frame (%d vs %d bytes)", round, len(got), len(want))
			}
		}
	}
}

// TestPooledInflaterSurvivesBadInput runs frames that fail mid-stream —
// the over-limit bomb of TestInflateBound, a truncated stream, a corrupt
// one — and after each a valid frame: whichever inflater the pool hands
// out next, Reset must have cleared the failed stream's state.
func TestPooledInflaterSurvivesBadInput(t *testing.T) {
	in := largeMsg()
	good := Seal(in)
	if good[0] != flagFlate {
		t.Fatalf("large message sealed with flag %#x, want flate", good[0])
	}
	bomb := Compress(make([]byte, 1+(4<<20)))
	corrupt := bytes.Clone(good)
	for i := len(corrupt) / 2; i < len(corrupt)/2+8; i++ {
		corrupt[i] ^= 0x5a
	}
	bad := []struct {
		name   string
		frame  []byte
		limit  int
		accept bool // a flipped stream may still inflate; the valid frame after it is the point
	}{
		{"over the bound", bomb, 1 << 20, false},
		{"truncated", good[:len(good)/2], maxInflate, false},
		{"corrupt", corrupt, maxInflate, true},
	}
	for round := 0; round < 3; round++ {
		for _, tc := range bad {
			body, err := decompress(tc.frame, tc.limit)
			if err == nil && !tc.accept {
				t.Fatalf("%s frame inflated to %d bytes without error", tc.name, len(body))
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s frame: %v, want ErrCorrupt", tc.name, err)
			}
			var junk testMsg
			if err := Unseal(tc.frame, &junk); err == nil && !tc.accept {
				t.Fatalf("%s frame unsealed without error", tc.name)
			}
			var out testMsg
			if err := Unseal(good, &out); err != nil {
				t.Fatalf("valid frame after the %s one: %v", tc.name, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("valid frame after the %s one decoded to a different value", tc.name)
			}
		}
	}
}

// TestSealConcurrent seals and unseals distinct large messages from many
// goroutines at once, as netcluster's senders do; every frame must equal
// the one the same message sealed to single-threaded. Run under -race in
// CI.
func TestSealConcurrent(t *testing.T) {
	const workers, rounds = 8, 40
	msgs := make([]testMsg, workers)
	want := make([][]byte, workers)
	for i := range msgs {
		m := largeMsg()
		m.A = i
		for j := 0; j < 512+64*i; j++ {
			m.I6 = append(m.I6, int64(j*(i+1))*2654435761)
		}
		msgs[i] = m
		want[i] = Seal(m)
		if want[i][0] != flagFlate {
			t.Fatalf("message %d sealed with flag %#x, want flate", i, want[i][0])
		}
		if n := len(rawPayload(m)); n < 4<<10 {
			t.Fatalf("message %d encodes to %d bytes, want at least 4 KiB", i, n)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := Seal(msgs[i])
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d round %d: concurrent seal differs from the single-threaded one", i, r)
					return
				}
				var out testMsg
				if err := Unseal(got, &out); err != nil {
					t.Errorf("goroutine %d round %d: unseal: %v", i, r, err)
					return
				}
				if !reflect.DeepEqual(out, msgs[i]) {
					t.Errorf("goroutine %d round %d: round trip returned another message", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSealLargeAllocBudget pins the bytes a steady-state Seal of a
// compressed frame allocates. With pooled codec state that is the
// returned frame and little else; a flate.Writer per frame is ~800 KB,
// some 400 bodies' worth, and fails this by two orders of magnitude.
func TestSealLargeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := largeMsg()
	body := len(rawPayload(m)) - 1
	Seal(m) // the pool's first writer is not steady state
	const seals = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < seals; i++ {
		sealSink = Seal(m)
	}
	runtime.ReadMemStats(&after)
	perSeal := (after.TotalAlloc - before.TotalAlloc) / seals
	if budget := uint64(8 * body); perSeal > budget {
		t.Fatalf("a steady-state Seal of a %d-byte body allocates %d bytes, budget %d (8× body): is codec state being rebuilt per frame?",
			body, perSeal, budget)
	}
}

var sealSink []byte

// benchMsgs are the two envelope regimes: a control frame that ships raw
// and a stage-sized one that is deflated.
func benchMsgs() []benchMsg {
	return []benchMsg{{"small", sampleMsg()}, {"large", largeMsg()}}
}

type benchMsg struct {
	name string
	msg  testMsg
}

func BenchmarkSealWire(b *testing.B) {
	for _, bc := range benchMsgs() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sealSink = Seal(bc.msg)
			}
			b.ReportMetric(float64(len(sealSink)), "bytes/op")
		})
	}
}

func BenchmarkUnsealWire(b *testing.B) {
	for _, bc := range benchMsgs() {
		b.Run(bc.name, func(b *testing.B) {
			payload := Seal(bc.msg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var m testMsg
				if err := Unseal(payload, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompress and BenchmarkDecompress time the envelope alone on the
// large message's body: what pooling the codec state changes, without the
// message encoder or decoder around it.
func BenchmarkCompress(b *testing.B) {
	payload := rawPayload(largeMsg())
	b.ReportAllocs()
	b.SetBytes(int64(len(payload) - 1))
	for i := 0; i < b.N; i++ {
		sealSink = Compress(payload)
	}
}

func BenchmarkDecompress(b *testing.B) {
	frame := Seal(largeMsg())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, err := Decompress(frame)
		if err != nil {
			b.Fatal(err)
		}
		sealSink = body
	}
}
