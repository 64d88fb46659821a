package cluster

import (
	"testing"

	"repro/internal/wire"
)

type benchPayload struct {
	Indices [][]int32
	Label   string
}

func (p benchPayload) AppendWire(w *wire.Writer) {
	w.Uvarint(uint64(len(p.Indices)))
	for _, ix := range p.Indices {
		w.I32s(ix)
	}
	w.String(p.Label)
}

func (p *benchPayload) DecodeWire(r *wire.Reader) {
	if n := r.Len(); n > 0 {
		p.Indices = make([][]int32, n)
		for i := range p.Indices {
			p.Indices[i] = r.I32s()
		}
	}
	p.Label = r.String()
}

func BenchmarkSendReceiveRoundTrip(b *testing.B) {
	nw := NewNetwork(2, CostModel{})
	payload := benchPayload{Label: "stage"}
	for i := 0; i < 10; i++ {
		payload.Indices = append(payload.Indices, []int32{1, 5, 9, 12})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := nw.Node(0).Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		msg, ok := receive(nw.Node(1))
		if !ok {
			b.Fatal("receive failed")
		}
		var back benchPayload
		if err := msg.Decode(&back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcast8(b *testing.B) {
	nw := NewNetwork(9, CostModel{})
	targets := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := nw.Node(0).Broadcast(targets, 1, benchPayload{Label: "bag"}); err != nil {
			b.Fatal(err)
		}
		for _, t := range targets {
			if _, ok := receive(nw.Node(t)); !ok {
				b.Fatal("receive failed")
			}
		}
	}
}
