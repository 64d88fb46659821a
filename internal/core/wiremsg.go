package core

// Wire-codec encoders for every protocol message in messages.go. Each
// message kind gets an AppendWire (value receiver, so values and
// pointers both satisfy wire.Marshaler at the Send call sites) and a
// DecodeWire (pointer receiver). Field order follows struct order; in
// particular every post-load message opens with its tag, Epoch first,
// which is what lets the master's epoch fence (epochOnly) peek at any
// reply payload without knowing its kind.
//
// The encoders for nested config types (search.Settings,
// bottom.Options, solve.Budget, bottom.Bottom, cluster.Traffic) are
// written field-by-field here rather than in their home packages: the
// wire format is a transport concern, and keeping it beside the message
// structs keeps one file to update when the protocol grows.

import (
	"time"

	"repro/internal/bottom"
	"repro/internal/search"
	"repro/internal/solve"
	"repro/internal/wire"
)

// --- nested struct helpers ---

func appendSettings(w *wire.Writer, s search.Settings) {
	w.Int(s.MaxClauseLen)
	w.Int(s.NodesLimit)
	w.Int(s.MinPos)
	w.F64(s.MinPrec)
	w.Int(s.W)
	w.Byte(byte(s.Heuristic))
	w.Byte(byte(s.Strategy))
	w.F64(s.MEstimateM)
	w.F64(s.PosPrior)
	w.Bool(false) // reserved (held the deleted per-candidate-evaluation setting): bench/golden.json pins kindLoad's bytes
	w.Bool(s.NoVM)
}

func readSettings(r *wire.Reader) search.Settings {
	var s search.Settings
	s.MaxClauseLen = r.Int()
	s.NodesLimit = r.Int()
	s.MinPos = r.Int()
	s.MinPrec = r.F64()
	s.W = r.Int()
	s.Heuristic = search.Heuristic(r.Byte())
	s.Strategy = search.Strategy(r.Byte())
	s.MEstimateM = r.F64()
	s.PosPrior = r.F64()
	r.Bool() // reserved, see appendSettings
	s.NoVM = r.Bool()
	return s
}

func appendBottomOpts(w *wire.Writer, o bottom.Options) {
	w.Int(o.VarDepth)
	w.Int(o.MaxLiterals)
	w.Int(o.MaxRecall)
}

func readBottomOpts(r *wire.Reader) bottom.Options {
	var o bottom.Options
	o.VarDepth = r.Int()
	o.MaxLiterals = r.Int()
	o.MaxRecall = r.Int()
	return o
}

func appendBudget(w *wire.Writer, b solve.Budget) {
	w.Int(b.MaxDepth)
	w.Varint(b.MaxInferences)
}

func readBudget(r *wire.Reader) solve.Budget {
	var b solve.Budget
	b.MaxDepth = r.Int()
	b.MaxInferences = r.Varint()
	return b
}

func appendBottom(w *wire.Writer, b bottom.Bottom) {
	w.Term(b.Example)
	w.Term(b.Head)
	w.Literals(b.Lits)
	w.Uvarint(uint64(len(b.Info)))
	for _, li := range b.Info {
		w.I32s(li.InVars)
		w.I32s(li.OutVars)
		w.Varint(int64(li.Depth))
	}
	w.I32s(b.HeadVars)
	w.Int(b.NumVars)
	w.Bool(b.Truncated)
}

func readBottom(r *wire.Reader) bottom.Bottom {
	var b bottom.Bottom
	b.Example = r.Term()
	b.Head = r.Term()
	b.Lits = r.Literals()
	if n := r.Len(); n > 0 {
		b.Info = make([]bottom.LitInfo, n)
		for i := range b.Info {
			b.Info[i].InVars = r.I32s()
			b.Info[i].OutVars = r.I32s()
			b.Info[i].Depth = int32(r.Varint())
		}
	}
	b.HeadVars = r.I32s()
	b.NumVars = r.Int()
	b.Truncated = r.Bool()
	return b
}

func appendWireRules(w *wire.Writer, rs []wireRule) {
	w.Uvarint(uint64(len(rs)))
	for _, rl := range rs {
		w.I32s(rl.Indices)
	}
}

func readWireRules(r *wire.Reader) []wireRule {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]wireRule, n)
	for i := range out {
		out[i].Indices = r.I32s()
	}
	return out
}

// appendTag writes the header every post-load message opens with:
// Epoch, Seq, Gen, the order the committed frame goldens pin.
func appendTag(w *wire.Writer, t tag) {
	w.Int(t.Epoch)
	w.Varint(t.Seq)
	w.Int(t.Gen)
}

func readTag(r *wire.Reader) tag {
	return tag{Epoch: r.Int(), Seq: r.Varint(), Gen: r.Int()}
}

// --- per-kind encoders, in kind order ---

func (m loadMsg) AppendWire(w *wire.Writer) { w.Int(m.Round) }
func (m *loadMsg) DecodeWire(r *wire.Reader) {
	m.Round = r.Int()
}

func (m loadDataMsg) AppendWire(w *wire.Writer) {
	w.Int(m.Round)
	w.Bool(m.HasData)
	w.Terms(m.Pos)
	w.Terms(m.Neg)
	w.Int(m.Gen)
	w.Int(m.Width)
	appendSettings(w, m.Search)
	appendBottomOpts(w, m.Bottom)
	appendBudget(w, m.Budget)
	w.Bool(m.AddLearnedToBK)
	w.Bool(m.Recover)
	w.Bool(m.Balance)
	w.Bool(m.Checkpoint)
	w.Varint(int64(m.OrphanTimeout))
}

func (m *loadDataMsg) DecodeWire(r *wire.Reader) {
	m.Round = r.Int()
	m.HasData = r.Bool()
	m.Pos = r.Terms()
	m.Neg = r.Terms()
	m.Gen = r.Int()
	m.Width = r.Int()
	m.Search = readSettings(r)
	m.Bottom = readBottomOpts(r)
	m.Budget = readBudget(r)
	m.AddLearnedToBK = r.Bool()
	m.Recover = r.Bool()
	m.Balance = r.Bool()
	m.Checkpoint = r.Bool()
	m.OrphanTimeout = time.Duration(r.Varint())
}

func (m startMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Width)
}

func (m *startMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Width = r.Int()
}

func (m stageMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Origin)
	w.Int(m.Step)
	appendBottom(w, m.Bottom)
	appendWireRules(w, m.Seeds)
}

func (m *stageMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Origin = r.Int()
	m.Step = r.Int()
	m.Bottom = readBottom(r)
	m.Seeds = readWireRules(r)
}

func (m rulesMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Origin)
	w.Clauses(m.Rules)
}

func (m *rulesMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Origin = r.Int()
	m.Rules = r.Clauses()
}

func (m evaluateMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Clauses(m.Rules)
}

func (m *evaluateMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Rules = r.Clauses()
}

func (m evalResultMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.I32s(m.Pos)
	w.I32s(m.Neg)
}

func (m *evalResultMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Pos = r.I32s()
	m.Neg = r.I32s()
}

func (m markCoveredMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Clause(m.Rule)
}

func (m *markCoveredMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Rule = r.Clause()
}

func (m adoptMsg) AppendWire(w *wire.Writer)  { appendTag(w, m.tag) }
func (m *adoptMsg) DecodeWire(r *wire.Reader) { m.tag = readTag(r) }

func (m adoptedMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.Bool(m.Ok)
	w.Term(m.Example)
}

func (m *adoptedMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Ok = r.Bool()
	m.Example = r.Term()
}

func (m stopMsg) AppendWire(w *wire.Writer) { w.Int(m.Gen) }
func (m *stopMsg) DecodeWire(r *wire.Reader) {
	m.Gen = r.Int()
}

func (m gatherMsg) AppendWire(w *wire.Writer)  { appendTag(w, m.tag) }
func (m *gatherMsg) DecodeWire(r *wire.Reader) { m.tag = readTag(r) }

func (m gatheredMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.Terms(m.Pos)
	w.I64s(m.Costs)
	w.Varint(m.Inferences)
	w.Varint(m.BusyNs)
}

func (m *gatheredMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Pos = r.Terms()
	m.Costs = r.I64s()
	m.Inferences = r.Varint()
	m.BusyNs = r.Varint()
}

func (m finalMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.Varint(m.Inferences)
	w.Varint(m.Generated)
	w.Varint(m.Clock)
	m.Traffic.AppendWire(w)
	w.Int(m.Fenced)
	w.Varint(m.Flaps)
	w.Varint(m.Replayed)
}

func (m *finalMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Inferences = r.Varint()
	m.Generated = r.Varint()
	m.Clock = r.Varint()
	m.Traffic.DecodeWire(r)
	m.Fenced = r.Int()
	m.Flaps = r.Varint()
	m.Replayed = r.Varint()
}

func (m reassignMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Ints(m.Members)
	w.Terms(m.Pos)
	w.Terms(m.Neg)
	w.Bool(m.Replace)
	w.Int(m.RollbackBelow)
}

func (m *reassignMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Members = r.Ints()
	m.Pos = r.Terms()
	m.Neg = r.Terms()
	m.Replace = r.Bool()
	m.RollbackBelow = r.Int()
}

func (m reassignAckMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.Int(m.Alive)
}

func (m *reassignAckMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Alive = r.Int()
}

func (m welcomeMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Ints(m.Members)
	m.Load.AppendWire(w)
}

func (m *welcomeMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Members = r.Ints()
	m.Load.DecodeWire(r)
}

func (m resumeQueryMsg) AppendWire(w *wire.Writer)  { appendTag(w, m.tag) }
func (m *resumeQueryMsg) DecodeWire(r *wire.Reader) { m.tag = readTag(r) }

func (m resumeInfoMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.Bool(m.Loaded)
	w.Int(m.Reconnects)
}

func (m *resumeInfoMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Loaded = r.Bool()
	m.Reconnects = r.Int()
}

func (m suspectMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
	w.Int(m.Peer)
}

func (m *suspectMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
	m.Peer = r.Int()
}

func (m fencedMsg) AppendWire(w *wire.Writer) {
	appendTag(w, m.tag)
	w.Int(m.Worker)
}

func (m *fencedMsg) DecodeWire(r *wire.Reader) {
	m.tag = readTag(r)
	m.Worker = r.Int()
}

// epochOnly reads just the leading Epoch varint every worker→master
// reply starts with, then discards the rest — the partial decode the
// epoch fence relies on.
func (m *epochOnly) DecodeWire(r *wire.Reader) {
	m.Epoch = r.Int()
	r.DiscardRest()
}
