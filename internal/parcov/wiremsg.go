package parcov

// Wire-codec encoders for the parcov coverage protocol, mirroring
// core/wiremsg.go: AppendWire on value receivers, DecodeWire on pointer
// receivers, field order = struct order. Candidate bitsets ship as
// fixed 8-byte words — their high bits are as populated as their low
// ones, so varints would only inflate them.

import "repro/internal/wire"

func appendMasks(w *wire.Writer, xs [][]uint64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.U64sFixed(x)
	}
}

func readMasks(r *wire.Reader) [][]uint64 {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([][]uint64, n)
	for i := range out {
		out[i] = r.U64sFixed()
	}
	return out
}

func (m evalBatchMsg) AppendWire(w *wire.Writer) {
	w.Varint(m.Seq)
	w.Clauses(m.Rules)
	appendMasks(w, m.PosCands)
	appendMasks(w, m.NegCands)
	w.Bools(m.HasCand)
}

func (m *evalBatchMsg) DecodeWire(r *wire.Reader) {
	m.Seq = r.Varint()
	m.Rules = r.Clauses()
	m.PosCands = readMasks(r)
	m.NegCands = readMasks(r)
	m.HasCand = r.Bools()
}

func (m evalBatchResultMsg) AppendWire(w *wire.Writer) {
	w.Varint(m.Seq)
	w.Int(m.Worker)
	appendMasks(w, m.Pos)
	appendMasks(w, m.Neg)
}

func (m *evalBatchResultMsg) DecodeWire(r *wire.Reader) {
	m.Seq = r.Varint()
	m.Worker = r.Int()
	m.Pos = readMasks(r)
	m.Neg = readMasks(r)
}

func (m retractRuleMsg) AppendWire(w *wire.Writer) { w.Clause(m.Rule) }
func (m *retractRuleMsg) DecodeWire(r *wire.Reader) {
	m.Rule = r.Clause()
}

func (m retractOneMsg) AppendWire(w *wire.Writer) { w.Term(m.Example) }
func (m *retractOneMsg) DecodeWire(r *wire.Reader) {
	m.Example = r.Term()
}

func (m stopMsg) AppendWire(w *wire.Writer)  {}
func (m *stopMsg) DecodeWire(r *wire.Reader) {}
