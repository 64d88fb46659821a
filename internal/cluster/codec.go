package cluster

import (
	"fmt"

	"repro/internal/wire"
)

// EncodePayload encodes v exactly as Send does: the compact
// symbol-interned encoding of internal/wire (varint integers, interned
// symbol indices, flate over bulk shipments). Both transports call it,
// so identical protocol messages produce identical payload bytes — and
// therefore identical per-link byte accounting and virtual-clock
// charges — regardless of how they travel.
func EncodePayload(v any) ([]byte, error) {
	m, ok := v.(wire.Marshaler)
	if !ok {
		return nil, fmt.Errorf("cluster: %T has no wire encoding (does not implement wire.Marshaler)", v)
	}
	return wire.Seal(m), nil
}

// DecodePayload decodes a payload produced by EncodePayload into v (a
// pointer).
func DecodePayload(payload []byte, v any) error {
	u, ok := v.(wire.Unmarshaler)
	if !ok {
		return fmt.Errorf("cluster: %T has no wire decoding (does not implement wire.Unmarshaler)", v)
	}
	return wire.Unseal(payload, u)
}

// AppendWire encodes the traffic table: node count, then the flattened
// per-link byte and message counters.
func (t Traffic) AppendWire(w *wire.Writer) {
	w.Int(t.N)
	w.I64s(t.Bytes)
	w.I64s(t.Msgs)
}

// DecodeWire decodes a traffic table, rejecting tables whose counter
// slices disagree with the claimed node count.
func (t *Traffic) DecodeWire(r *wire.Reader) {
	t.N = r.Int()
	t.Bytes = r.I64s()
	t.Msgs = r.I64s()
	if r.Err() == nil && (len(t.Bytes) != len(t.Msgs) || (t.N != 0 && len(t.Bytes) != t.N*t.N) || (t.N == 0 && t.Bytes != nil)) {
		r.Failf("traffic table: n=%d, %d byte counters, %d msg counters", t.N, len(t.Bytes), len(t.Msgs))
	}
}
