package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// receive is ReceiveCtx without a deadline; ok is false once n's inbox
// has closed with nothing queued.
func receive(n *Node) (Message, bool) {
	msg, err := n.ReceiveCtx(context.Background())
	return msg, err == nil
}

// advance moves n's clock forward by a raw virtual duration.
func advance(n *Node, d time.Duration) { n.clock.Add(int64(d)) }

type ping struct {
	N    int
	Text string
}

// ping has a wire encoding, like every real protocol message.
func (p ping) AppendWire(w *wire.Writer) {
	w.Int(p.N)
	w.String(p.Text)
}

func (p *ping) DecodeWire(r *wire.Reader) {
	p.N = r.Int()
	p.Text = r.String()
}

func TestSendReceiveRoundTrip(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	done := make(chan ping, 1)
	go func() {
		msg, ok := receive(nw.Node(1))
		if !ok {
			t.Error("receive failed")
			done <- ping{}
			return
		}
		var p ping
		if err := msg.Decode(&p); err != nil {
			t.Error(err)
		}
		done <- p
	}()
	want := ping{N: 42, Text: "hello"}
	if err := nw.Node(0).Send(1, 7, want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestPayloadIsolation(t *testing.T) {
	// The receiver must get a deep copy: mutating the sender's value after
	// Send must not affect what is delivered (MPI semantics).
	nw := NewNetwork(2, CostModel{})
	v := &ping{N: 1, Text: "original"}
	if err := nw.Node(0).Send(1, 0, v); err != nil {
		t.Fatal(err)
	}
	v.Text = "mutated"
	msg, _ := receive(nw.Node(1))
	var got ping
	if err := msg.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Text != "original" {
		t.Fatalf("payload not isolated: %+v", got)
	}
}

func TestBroadcast(t *testing.T) {
	nw := NewNetwork(4, CostModel{})
	if err := nw.Node(0).Broadcast([]int{1, 2, 3}, 5, ping{N: 9}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		msg, ok := receive(nw.Node(i))
		if !ok || msg.Kind != 5 {
			t.Fatalf("node %d: %+v ok=%v", i, msg, ok)
		}
		var p ping
		if err := msg.Decode(&p); err != nil || p.N != 9 {
			t.Fatalf("node %d payload: %+v err=%v", i, p, err)
		}
	}
	if got := nw.Traffic().TotalMsgs(); got != 3 {
		t.Fatalf("broadcast counted %d messages, want 3", got)
	}
}

func TestFIFOOrderPerLink(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	for i := 0; i < 10; i++ {
		if err := nw.Node(0).Send(1, i, ping{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		msg, ok := receive(nw.Node(1))
		if !ok || msg.Kind != i {
			t.Fatalf("message %d out of order: kind=%d", i, msg.Kind)
		}
	}
}

func TestVirtualClockAdvancesOnCompute(t *testing.T) {
	nw := NewNetwork(1, CostModel{NsPerInference: 1000})
	n := nw.Node(0)
	n.Compute(500)
	if got := n.Clock(); got != VTime(500*1000) {
		t.Fatalf("clock = %d, want 500000", got)
	}
	advance(n, time.Millisecond)
	if got := n.Clock(); got != VTime(500000+1e6) {
		t.Fatalf("clock = %d after duration", got)
	}
}

func TestVirtualClockAdvancesOnReceive(t *testing.T) {
	model := CostModel{Latency: time.Millisecond, BandwidthBps: 1e6, NsPerInference: 1}
	nw := NewNetwork(2, model)
	sender := nw.Node(0)
	advance(sender, 10*time.Millisecond) // sender clock = 10ms
	if err := sender.Send(1, 0, ping{Text: "x"}); err != nil {
		t.Fatal(err)
	}
	msg, _ := receive(nw.Node(1))
	// Arrival = 10ms + 1ms latency + bytes/1e6 seconds.
	wantMin := VTime(11 * time.Millisecond)
	if msg.Arrive < wantMin {
		t.Fatalf("arrival %d < %d", msg.Arrive, wantMin)
	}
	if nw.Node(1).Clock() != msg.Arrive {
		t.Fatalf("receiver clock %d != arrival %d", nw.Node(1).Clock(), msg.Arrive)
	}
	// Receiver ahead of arrival must NOT move backwards.
	nw2 := NewNetwork(2, model)
	advance(nw2.Node(1), time.Second)
	if err := nw2.Node(0).Send(1, 0, ping{}); err != nil {
		t.Fatal(err)
	}
	before := nw2.Node(1).Clock()
	receive(nw2.Node(1))
	if nw2.Node(1).Clock() != before {
		t.Fatal("receiver clock moved backwards")
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	model := CostModel{Latency: time.Millisecond, BandwidthBps: 1e6, NsPerInference: 1}.withDefaults()
	small := model.transferTime(100)
	big := model.transferTime(100000)
	if big <= small {
		t.Fatalf("transfer time not monotone in size: %d vs %d", small, big)
	}
	// 100 KB at 1 MB/s ≈ 100 ms (+1 ms latency).
	want := VTime(101 * time.Millisecond)
	if diff := big - want; diff < -VTime(time.Millisecond) || diff > VTime(time.Millisecond) {
		t.Fatalf("transfer time %v, want ≈ %v", big, want)
	}
}

func TestByteAccounting(t *testing.T) {
	nw := NewNetwork(3, CostModel{})
	if err := nw.Node(0).Send(1, 0, ping{Text: "0 to 1"}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node(0).Send(2, 0, ping{Text: "0 to 2, longer payload"}); err != nil {
		t.Fatal(err)
	}
	tr := nw.Traffic()
	if tr.TotalMsgs() != 2 || tr.TotalBytes() <= 0 {
		t.Fatalf("traffic: %v", tr)
	}
	if tr.LinkBytes(0, 1) <= 0 || tr.LinkBytes(0, 2) <= 0 {
		t.Fatal("link bytes missing")
	}
	if tr.LinkBytes(0, 2) <= tr.LinkBytes(0, 1) {
		t.Fatal("longer payload should move more bytes")
	}
	if tr.LinkBytes(1, 0) != 0 {
		t.Fatal("phantom traffic on unused link")
	}
	if tr.TotalBytes() != tr.LinkBytes(0, 1)+tr.LinkBytes(0, 2) {
		t.Fatal("total bytes != sum of links")
	}
}

func TestReceiveBlocksUntilSend(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	received := make(chan struct{})
	go func() {
		receive(nw.Node(1))
		close(received)
	}()
	select {
	case <-received:
		t.Fatal("receive returned with no message")
	case <-time.After(20 * time.Millisecond):
	}
	if err := nw.Node(0).Send(1, 0, ping{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-received:
	case <-time.After(time.Second):
		t.Fatal("receive never unblocked")
	}
}

func TestShutdownReleasesReceivers(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	done := make(chan bool, 1)
	go func() {
		_, ok := receive(nw.Node(1))
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	nw.Shutdown()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Receive reported ok after shutdown")
		}
	case <-time.After(time.Second):
		t.Fatal("shutdown did not release receiver")
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	nw := NewNetwork(3, CostModel{NsPerInference: 1})
	advance(nw.Node(0), 5*time.Millisecond)
	advance(nw.Node(1), 9*time.Millisecond)
	advance(nw.Node(2), 2*time.Millisecond)
	if got := nw.Makespan(); got != VTime(9*time.Millisecond) {
		t.Fatalf("makespan = %v", got)
	}
}

func TestTraceEvents(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	var mu sync.Mutex
	var events []Event
	nw.SetTrace(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	if err := nw.Node(0).Send(1, 3, ping{}); err != nil {
		t.Fatal(err)
	}
	receive(nw.Node(1))
	nw.Node(1).Compute(10)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Fatalf("events: %v", events)
	}
	if events[0].Type != EvSend || events[1].Type != EvReceive || events[2].Type != EvCompute {
		t.Fatalf("event sequence: %v", events)
	}
	if events[0].Kind != 3 || events[1].Peer != 0 {
		t.Fatalf("event fields: %+v %+v", events[0], events[1])
	}
}

func TestRingTokenStress(t *testing.T) {
	const n, rounds = 8, 50
	nw := NewNetwork(n, CostModel{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			node := nw.Node(id)
			if id == 0 {
				if err := node.Send(1, 0, ping{N: 0}); err != nil {
					t.Error(err)
					return
				}
			}
			for {
				msg, ok := receive(node)
				if !ok {
					return
				}
				var p ping
				if err := msg.Decode(&p); err != nil {
					t.Error(err)
					return
				}
				node.Compute(100)
				if p.N >= rounds*n {
					nw.Shutdown()
					return
				}
				if err := node.Send((id+1)%n, 0, ping{N: p.N + 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if msgs := nw.Traffic().TotalMsgs(); msgs < rounds*n {
		t.Fatalf("messages = %d, want ≥ %d", msgs, rounds*n)
	}
	if nw.Makespan() <= 0 {
		t.Fatal("makespan not positive")
	}
}

// TestSpawnDeliversPeerUpAndGrowsAccounting pins the elastic join surface
// of the simulated machine: a node spawned mid-run is announced to every
// live peer as a KindPeerUp event, queued ahead of anything sent after the
// spawn, and its links are accounted.
func TestSpawnDeliversPeerUpAndGrowsAccounting(t *testing.T) {
	nw := NewNetwork(2, CostModel{})

	joiner := nw.Spawn()
	if joiner.ID() != 2 || nw.Size() != 3 || nw.Node(2) != joiner {
		t.Fatalf("spawned node id=%d size=%d", joiner.ID(), nw.Size())
	}
	msg, ok := receive(nw.Node(0))
	if !ok || msg.Kind != KindPeerUp || msg.From != 2 {
		t.Fatalf("master got %+v, want KindPeerUp from 2", msg)
	}
	// Traffic to and from the joiner is accounted like any other link.
	if err := nw.Node(0).Send(2, 7, ping{Text: "welcome"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := receive(joiner); !ok {
		t.Fatal("joiner did not receive")
	}
	if err := joiner.Send(0, 8, ping{Text: "ack"}); err != nil {
		t.Fatal(err)
	}
	tr := nw.Traffic()
	if tr.N != 3 || tr.LinkMsgs(0, 2) != 1 || tr.LinkMsgs(2, 0) != 1 {
		t.Fatalf("joiner links not accounted: %v", tr.Links())
	}
	// Node 1 hears of the joiner too, before the data sent after it.
	if err := nw.Node(0).Send(1, 9, ping{Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if msg, ok := receive(nw.Node(1)); !ok || msg.Kind != KindPeerUp || msg.From != 2 {
		t.Fatalf("node 1 got %+v, want KindPeerUp from 2", msg)
	}
	if msg, ok := receive(nw.Node(1)); !ok || msg.Kind != 9 {
		t.Fatalf("node 1 got %+v, want the data message", msg)
	}
	// Members on every node includes the joiner.
	if got := nw.Node(1).Members(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("members = %v", got)
	}
}

// TestSetSpeedScalesCompute pins per-node heterogeneity: a factor-4 node
// pays 4× the model cost per inference, everyone else is unchanged.
func TestSetSpeedScalesCompute(t *testing.T) {
	nw := NewNetwork(2, CostModel{NsPerInference: 1000})
	nw.SetSpeed(1, 4)
	nw.Node(0).Compute(100)
	nw.Node(1).Compute(100)
	if nw.Node(0).Clock() != VTime(100*1000) {
		t.Fatalf("node 0 clock %d", nw.Node(0).Clock())
	}
	if nw.Node(1).Clock() != VTime(4*100*1000) {
		t.Fatalf("node 1 clock %d, want 4x", nw.Node(1).Clock())
	}
	nw.SetSpeed(1, 0) // reset to 1
	nw.Node(1).Compute(100)
	if nw.Node(1).Clock() != VTime(5*100*1000) {
		t.Fatalf("node 1 clock after reset %d", nw.Node(1).Clock())
	}
}
