package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
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
		t.Fatalf("maxInflate %d does not exceed netcluster's 256 MiB MaxFrameBytes default", maxInflate)
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

func BenchmarkSealWire(b *testing.B) {
	m := sampleMsg()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(Seal(m))
	}
	b.ReportMetric(float64(n), "bytes/op")
}

func BenchmarkUnsealWire(b *testing.B) {
	payload := Seal(sampleMsg())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m testMsg
		if err := Unseal(payload, &m); err != nil {
			b.Fatal(err)
		}
	}
}
