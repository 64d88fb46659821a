// Package wire is the compact binary codec protocol frames travel in.
//
// Every payload the cluster ships — p²-mdie control and data messages,
// parcov's coverage protocol, bulk example shipments — is encoded with
// this hand-rolled format. It replaced gob as the payload encoding
// (PERF.md, PR 10) and wins on size for three reasons:
//
//   - no per-message type metadata: gob re-emits struct descriptors in
//     every payload because each message gets a fresh encoder (stream
//     encoders cannot be shared across reordered frames);
//   - varint integers: epochs, sequence numbers, widths, and symbol
//     indices are small, and zigzag varints make them one or two bytes;
//   - interned symbols: the PR 3 fingerprint handshake guarantees every
//     process interned the identical background knowledge in the same
//     order, so an atom or functor is a single small index instead of a
//     structural spelling.
//
// The grammar is documented in DESIGN.md §12. Encoders append to a
// Writer; decoders pull from a Reader that latches its first error so
// per-field error checking is unnecessary — callers check Err() once.
// The same Writer and Reader encode netcluster's frame envelope, master
// checkpoints and serving snapshots: no other codec is left.
//
// Payloads are wrapped in a one-byte envelope (Seal/Open): flag 0 is a
// raw body, flag 1 a DEFLATE-compressed body. Seal compresses when the
// body reaches CompressMin and compression actually helps, which
// catches the bulk shipments (kindLoad, kindReassign, kindWelcome,
// snapshot publish) and every stage or evaluate frame that carries a
// full width of rules — a few hundred frames per learn — while leaving
// small control frames untouched. The codec state behind the envelope is
// pooled, so those frames cost a Reset, not a new compressor.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/logic"
)

// ErrTruncated reports a payload that ended before its structure did.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrCorrupt reports a payload whose bytes cannot be the output of a
// wire encoder: a varint overflow or non-minimal varint, an unknown tag,
// trailing garbage.
var ErrCorrupt = errors.New("wire: corrupt payload")

// CompressMin is the body size, in bytes, at which Seal attempts flate
// compression. Below it the flate header and dictionary warm-up cost
// more than they save on the short control frames that dominate frame
// *count* (the bulk shipments dominate frame *bytes*).
const CompressMin = 1 << 10

// maxInflate bounds how far Decompress will inflate a frame, so a
// garbled or hostile frame cannot balloon into unbounded allocation. It
// is sized against netcluster's 256 MiB maxFrameBytes — the cap
// on the compressed frame, which no real shipment's inflated body comes
// near — and fits an int on 32-bit platforms.
const maxInflate = 1 << 30

// Envelope flags: the first byte of every sealed payload.
const (
	flagRaw   = 0x00
	flagFlate = 0x01
)

// Marshaler is implemented (on value receivers, so both values and
// pointers satisfy it) by every message type that can travel in wire
// encoding.
type Marshaler interface {
	AppendWire(w *Writer)
}

// Unmarshaler is implemented (on pointer receivers) by the same types.
// DecodeWire reports failure through the Reader's latched error, not a
// return value.
type Unmarshaler interface {
	DecodeWire(r *Reader)
}

// A Writer accumulates an encoded body. The zero value is ready to use;
// encoders append and never fail.
type Writer struct {
	B []byte
}

// A Reader consumes an encoded body. The first failed read latches an
// error; every subsequent read returns a zero value, so decoders can
// run straight through and check Err once at the end. No read returns a
// slice of the body (String copies): Unseal recycles the body of a
// compressed frame as soon as DecodeWire returns.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps an encoded body.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unconsumed.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// DiscardRest consumes the remainder of the body without interpreting
// it. Partial decoders (reading just a message header) use it so the
// trailing-bytes check in Unseal still passes.
func (r *Reader) DiscardRest() { r.off = len(r.b) }

// Failf latches a corrupt-payload error with context. Decoders use it
// to report structural invariants the primitive reads cannot see.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// --- primitive writes ---

// Byte appends a single raw byte.
func (w *Writer) Byte(b byte) { w.B = append(w.B, b) }

// Bool appends a bool as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.B = binary.AppendUvarint(w.B, v) }

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(v int64) { w.B = binary.AppendVarint(w.B, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// F64 appends a float64 as its 8 little-endian IEEE-754 bits. Floats
// get fixed width: heuristic parameters and costs have dense mantissas
// that varint tricks would inflate.
func (w *Writer) F64(v float64) {
	w.B = binary.LittleEndian.AppendUint64(w.B, math.Float64bits(v))
}

// Fixed64 appends a uint64 as 8 little-endian bytes. Used for bitset
// words, whose high bits are as likely set as low ones.
func (w *Writer) Fixed64(v uint64) {
	w.B = binary.LittleEndian.AppendUint64(w.B, v)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.B = append(w.B, s...)
}

// --- primitive reads ---

// Byte consumes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Bool consumes one byte and requires it to be 0 or 1 — anything else
// marks the payload corrupt, which makes garbled frames loud.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Failf("bool byte %#x", b)
		return false
	}
	return b == 1
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.Failf("uvarint overflow")
		}
		return 0
	}
	if !r.minimal(n) {
		return 0
	}
	r.off += n
	return v
}

// Varint consumes a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.Failf("varint overflow")
		}
		return 0
	}
	if !r.minimal(n) {
		return 0
	}
	r.off += n
	return v
}

// minimal reports whether the n-byte varint at the read offset is in the
// minimal form every encoder writes, and latches ErrCorrupt if not: a
// redundant trailing zero group would give one value two encodings.
func (r *Reader) minimal(n int) bool {
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.Failf("non-minimal varint")
		return false
	}
	return true
}

// Int consumes a signed varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// F64 consumes 8 bytes as a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.Fixed64()) }

// Fixed64 consumes 8 little-endian bytes as a uint64.
func (r *Reader) Fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// String consumes a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen(1)
	if n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Len reads a length prefix for a slice of structs whose elements take
// at least one byte each, with the same remaining-bytes guard as the
// built-in slice helpers. Message decoders use it for struct slices the
// Reader has no dedicated helper for.
func (r *Reader) Len() int { return r.sliceLen(1) }

// sliceLen reads a length prefix and guards it against the remaining
// byte count: a claimed length that cannot fit in what is left (at
// elemSize bytes minimum per element) is a truncated or garbled frame,
// and rejecting it here keeps decoders from allocating attacker-sized
// slices before discovering the payload runs dry.
func (r *Reader) sliceLen(elemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/elemSize) {
		r.fail(fmt.Errorf("%w: %d elements claimed, %d bytes remain", ErrTruncated, n, r.Remaining()))
		return 0
	}
	return int(n)
}

// --- slice helpers ---
//
// Empty slices encode as length 0 and decode as nil. That asymmetry is
// deliberate: gob omits empty slices entirely, so a gob round trip of a
// struct with an empty slice yields nil — matching it keeps decoded
// values DeepEqual to what the gob reference in the fuzz harness yields.

// I32s appends a length-prefixed []int32 of varints.
func (w *Writer) I32s(xs []int32) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Varint(int64(x))
	}
}

// I32s consumes a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Varint())
	}
	return out
}

// I64s appends a length-prefixed []int64 of varints.
func (w *Writer) I64s(xs []int64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Varint(x)
	}
}

// I64s consumes a length-prefixed []int64.
func (r *Reader) I64s() []int64 {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Varint()
	}
	return out
}

// Ints appends a length-prefixed []int of varints.
func (w *Writer) Ints(xs []int) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Varint(int64(x))
	}
}

// Ints consumes a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// U64sFixed appends a length-prefixed []uint64 of fixed 8-byte words.
func (w *Writer) U64sFixed(xs []uint64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Fixed64(x)
	}
}

// U64sFixed consumes a length-prefixed fixed-width []uint64.
func (r *Reader) U64sFixed() []uint64 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Fixed64()
	}
	return out
}

// Bools appends a length-prefixed []bool, one byte per element.
func (w *Writer) Bools(xs []bool) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Bool(x)
	}
}

// Bools consumes a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// Strings appends a length-prefixed []string.
func (w *Writer) Strings(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Strings consumes a length-prefixed []string.
func (r *Reader) Strings() []string {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// --- terms, literals, clauses ---
//
// A term is a one-byte tag followed by tag-specific fields. Variables
// and atoms are bare symbol indices; integers whose float64 carrier is
// an exact int64 take the varint fast path, everything else ships the
// raw IEEE bits so the round trip is bit-faithful.

const (
	tInvalid  = 0x00 // zero Term
	tVar      = 0x01 // varint variable index
	tAtom     = 0x02 // uvarint interned symbol
	tInt      = 0x03 // zigzag varint, exact integers only
	tFloat    = 0x04 // 8-byte IEEE-754 bits
	tCompound = 0x05 // uvarint functor symbol, uvarint arity, args
	tIntBits  = 0x06 // Int whose value is not an exact int64: raw bits
)

// Term appends one logic.Term.
func (w *Writer) Term(t logic.Term) {
	switch t.Kind {
	case logic.Var:
		w.Byte(tVar)
		w.Varint(int64(t.Sym))
	case logic.Atom:
		w.Byte(tAtom)
		w.Uvarint(uint64(t.Sym))
	case logic.Int:
		if iv := int64(t.Num); float64(iv) == t.Num {
			w.Byte(tInt)
			w.Varint(iv)
		} else {
			w.Byte(tIntBits)
			w.F64(t.Num)
		}
	case logic.Float:
		w.Byte(tFloat)
		w.F64(t.Num)
	case logic.Compound:
		w.Byte(tCompound)
		w.Uvarint(uint64(t.Sym))
		w.Uvarint(uint64(len(t.Args)))
		for _, a := range t.Args {
			w.Term(a)
		}
	default:
		w.Byte(tInvalid)
	}
}

// Term consumes one logic.Term.
func (r *Reader) Term() logic.Term {
	switch tag := r.Byte(); tag {
	case tVar:
		return logic.Term{Kind: logic.Var, Sym: logic.Symbol(r.Varint())}
	case tAtom:
		return logic.Term{Kind: logic.Atom, Sym: logic.Symbol(r.Uvarint())}
	case tInt:
		return logic.Term{Kind: logic.Int, Num: float64(r.Varint())}
	case tIntBits:
		return logic.Term{Kind: logic.Int, Num: r.F64()}
	case tFloat:
		return logic.Term{Kind: logic.Float, Num: r.F64()}
	case tCompound:
		sym := logic.Symbol(r.Uvarint())
		n := r.sliceLen(1)
		t := logic.Term{Kind: logic.Compound, Sym: sym}
		if n > 0 {
			t.Args = make([]logic.Term, n)
			for i := range t.Args {
				t.Args[i] = r.Term()
			}
		}
		return t
	case tInvalid:
		return logic.Term{}
	default:
		r.Failf("term tag %#x", tag)
		return logic.Term{}
	}
}

// Terms appends a length-prefixed []logic.Term.
func (w *Writer) Terms(ts []logic.Term) {
	w.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		w.Term(t)
	}
}

// Terms consumes a length-prefixed []logic.Term.
func (r *Reader) Terms() []logic.Term {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]logic.Term, n)
	for i := range out {
		out[i] = r.Term()
	}
	return out
}

// Literal appends one logic.Literal: negation flag, then the atom.
func (w *Writer) Literal(l logic.Literal) {
	w.Bool(l.Neg)
	w.Term(l.Atom)
}

// Literal consumes one logic.Literal.
func (r *Reader) Literal() logic.Literal {
	neg := r.Bool()
	return logic.Literal{Neg: neg, Atom: r.Term()}
}

// Literals appends a length-prefixed []logic.Literal.
func (w *Writer) Literals(ls []logic.Literal) {
	w.Uvarint(uint64(len(ls)))
	for _, l := range ls {
		w.Literal(l)
	}
}

// Literals consumes a length-prefixed []logic.Literal.
func (r *Reader) Literals() []logic.Literal {
	n := r.sliceLen(2)
	if n == 0 {
		return nil
	}
	out := make([]logic.Literal, n)
	for i := range out {
		out[i] = r.Literal()
	}
	return out
}

// Clause appends one logic.Clause: head term, then body literals.
func (w *Writer) Clause(c logic.Clause) {
	w.Term(c.Head)
	w.Literals(c.Body)
}

// Clause consumes one logic.Clause.
func (r *Reader) Clause() logic.Clause {
	head := r.Term()
	return logic.Clause{Head: head, Body: r.Literals()}
}

// Clauses appends a length-prefixed []logic.Clause.
func (w *Writer) Clauses(cs []logic.Clause) {
	w.Uvarint(uint64(len(cs)))
	for _, c := range cs {
		w.Clause(c)
	}
}

// Clauses consumes a length-prefixed []logic.Clause.
func (r *Reader) Clauses() []logic.Clause {
	n := r.sliceLen(2)
	if n == 0 {
		return nil
	}
	out := make([]logic.Clause, n)
	for i := range out {
		out[i] = r.Clause()
	}
	return out
}

// --- envelope ---
//
// Sealing and unsealing reuse their codec state through two sync.Pools
// (DESIGN.md §12, "Envelope state is pooled"): a flate.Writer is ~800 KB
// of tables and an inflater ~45 KB, and a p²-mdie run seals hundreds of
// stage and evaluate frames past CompressMin. Pools rather than per-node
// encoders because netcluster seals from several goroutines at once.
// The ownership rule is one line: pooled scratch never escapes — every
// slice a caller receives is either its own input or a fresh exact-size
// copy.

// A deflater is the state one Seal or Compress call borrows.
type deflater struct {
	raw []byte        // Seal's encode scratch: flag byte + body
	zb  bytes.Buffer  // the flate frame being built
	zw  *flate.Writer // nil until the first body of CompressMin bytes
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// deflate returns payload's flate frame as a fresh slice, or nil when
// the envelope policy ships payload raw. (*flate.Writer).Reset is
// documented as equivalent to NewWriter at the same level, so a recycled
// writer emits the bytes a fresh one would.
func (d *deflater) deflate(payload []byte) []byte {
	if len(payload)-1 < CompressMin {
		return nil
	}
	d.zb.Reset()
	d.zb.WriteByte(flagFlate)
	if d.zw == nil {
		zw, err := flate.NewWriter(&d.zb, flate.DefaultCompression)
		if err != nil {
			return nil // impossible for a valid level; ship raw
		}
		d.zw = zw
	} else {
		d.zw.Reset(&d.zb)
	}
	if _, err := d.zw.Write(payload[1:]); err != nil {
		return nil
	}
	if err := d.zw.Close(); err != nil {
		return nil
	}
	if d.zb.Len() >= len(payload) {
		return nil // incompressible body: raw is smaller
	}
	return bytes.Clone(d.zb.Bytes())
}

// Seal encodes m and wraps it in the compression envelope: a flag byte
// of 0 (raw) or 1 (flate), then the body. Bodies of CompressMin bytes
// or more are flate-compressed when that actually shrinks the frame.
// Flate with a fixed input and level is deterministic, so sealed frames
// stay byte-stable — the virtual clock's byte accounting depends on it.
func Seal(m Marshaler) []byte {
	d := deflaters.Get().(*deflater)
	w := Writer{B: append(d.raw[:0], flagRaw)}
	m.AppendWire(&w)
	d.raw = w.B
	out := d.deflate(w.B)
	if out == nil {
		out = bytes.Clone(w.B)
	}
	deflaters.Put(d)
	return out
}

// Compress applies the envelope's compression policy to an
// already-flag-prefixed payload (payload[0] must be flagRaw) and returns
// either payload itself or a fresh flate frame. It is split out of Seal
// so non-message blobs — snapshot publishes — share the exact threshold
// and framing.
func Compress(payload []byte) []byte {
	d := deflaters.Get().(*deflater)
	out := d.deflate(payload)
	deflaters.Put(d)
	if out == nil {
		return payload
	}
	return out
}

// An inflater is the state one Decompress or Unseal call borrows.
type inflater struct {
	src bytes.Reader
	lim io.LimitedReader
	fr  io.ReadCloser // a flate reader; also a flate.Resetter
	out []byte        // the inflated body
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.fr = flate.NewReader(&f.src)
	return f
}}

// inflate returns z's inflated body in f's scratch: valid until f goes
// back to the pool. Reset discards whatever a previous, possibly failed,
// stream left behind.
func (f *inflater) inflate(z []byte, limit int) ([]byte, error) {
	f.src.Reset(z)
	if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	f.lim = io.LimitedReader{R: f.fr, N: int64(limit)}
	body := f.out[:0]
	var err error
	for err == nil { // io.ReadAll's loop, over a buffer that outlives the call
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		var n int
		n, err = f.lim.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
	}
	f.out = body
	if err != io.EOF {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	if len(body) >= limit {
		return nil, fmt.Errorf("%w: frame inflates past %d bytes", ErrCorrupt, limit)
	}
	return body, nil
}

// Decompress strips the envelope and returns the raw body: a slice of
// payload for a raw frame, a fresh slice for a flate one. It is the
// inverse of Compress.
func Decompress(payload []byte) ([]byte, error) {
	return decompress(payload, maxInflate)
}

// decompress is Decompress with the inflate bound as a parameter, so a
// test can exercise the bound without a gigabyte frame.
func decompress(payload []byte, limit int) ([]byte, error) {
	f, body, err := open(payload, limit)
	if f != nil {
		body = bytes.Clone(body)
		inflaters.Put(f)
	}
	return body, err
}

// open strips the envelope. A flate frame comes back in the scratch of
// the inflater returned with it, which the caller puts back once it is
// done with the body; a raw frame's body aliases payload and the
// inflater is nil.
func open(payload []byte, limit int) (*inflater, []byte, error) {
	if len(payload) == 0 {
		return nil, nil, fmt.Errorf("%w: empty frame", ErrTruncated)
	}
	switch payload[0] {
	case flagRaw:
		return nil, payload[1:], nil
	case flagFlate:
		f := inflaters.Get().(*inflater)
		body, err := f.inflate(payload[1:], limit)
		if err != nil {
			inflaters.Put(f)
			return nil, nil, err
		}
		return f, body, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown envelope flag %#x", ErrCorrupt, payload[0])
	}
}

// Open strips the envelope and returns a Reader over the body. The
// Reader owns its body, so it may outlive the call.
func Open(payload []byte) (*Reader, error) {
	body, err := Decompress(payload)
	if err != nil {
		return nil, err
	}
	return NewReader(body), nil
}

// Unseal decodes a sealed payload into u. A decode that errors, or one
// that leaves unconsumed bytes (a garbled or mis-typed frame), fails.
// Partial decoders that intend to skip the tail call DiscardRest.
//
// A flate frame is inflated into pooled scratch that is recycled when
// Unseal returns. That is safe because no Reader method hands out a
// slice of the body (String copies); DecodeWire must not retain r.
func Unseal(payload []byte, u Unmarshaler) error {
	f, body, err := open(payload, maxInflate)
	if err != nil {
		return err
	}
	if f != nil {
		defer inflaters.Put(f)
	}
	r := Reader{b: body}
	u.DecodeWire(&r)
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, n)
	}
	return nil
}
