package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The simulated transport's failure paths: ReceiveCtx must unblock on
// shutdown (ErrClosed) and on context expiry, never deadlock.

func TestReceiveCtxDeliversAndAdvancesClock(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	if err := nw.Node(0).Send(1, 3, ping{Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	msg, err := nw.Node(1).ReceiveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != 3 || msg.From != 0 {
		t.Fatalf("got %+v", msg)
	}
	if nw.Node(1).Clock() != msg.Arrive {
		t.Fatalf("clock %d, want arrival %d", nw.Node(1).Clock(), msg.Arrive)
	}
}

func TestReceiveCtxDeadline(t *testing.T) {
	nw := NewNetwork(1, CostModel{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := nw.Node(0).ReceiveCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestReceiveCtxShutdown(t *testing.T) {
	nw := NewNetwork(1, CostModel{})
	done := make(chan error, 1)
	go func() {
		_, err := nw.Node(0).ReceiveCtx(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	nw.Shutdown()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReceiveCtx did not unblock on shutdown")
	}
}

func TestReceiveCtxPrefersQueuedMessageOverExpiredContext(t *testing.T) {
	nw := NewNetwork(2, CostModel{})
	if err := nw.Node(0).Send(1, 1, ping{N: 42}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	msg, err := nw.Node(1).ReceiveCtx(ctx)
	if err != nil {
		t.Fatalf("queued message lost to expired context: %v", err)
	}
	var v ping
	if err := msg.Decode(&v); err != nil || v.N != 42 {
		t.Fatalf("decode: %v %+v", err, v)
	}
}

func TestTrafficTable(t *testing.T) {
	nw := NewNetwork(3, CostModel{})
	nw.Node(0).Send(1, 0, ping{Text: "x"})
	nw.Node(0).Send(1, 0, ping{Text: "x"})
	nw.Node(1).Send(2, 0, ping{Text: "longer payload"})
	tr := nw.Traffic()
	if tr.LinkMsgs(0, 1) != 2 || tr.LinkMsgs(1, 2) != 1 || tr.LinkMsgs(2, 0) != 0 {
		t.Fatalf("per-link msgs wrong: %v", tr.Links())
	}
	merged := NewTraffic(3)
	merged.Merge(tr)
	merged.Merge(NewTraffic(2)) // smaller table folds in by link identity
	if merged.LinkBytes(0, 1) != tr.LinkBytes(0, 1) {
		t.Fatal("merge lost bytes")
	}
	// A larger table grows the receiver, preserving existing links.
	bigger := NewTraffic(4)
	bigger.Add(3, 0, 7, 1)
	merged.Merge(bigger)
	if merged.N != 4 || merged.LinkBytes(0, 1) != tr.LinkBytes(0, 1) || merged.LinkBytes(3, 0) != 7 {
		t.Fatalf("growth merge wrong: n=%d links=%v", merged.N, merged.Links())
	}
}

func TestTrafficGrowKeepsLinkIdentity(t *testing.T) {
	tr := NewTraffic(2)
	tr.Add(0, 1, 100, 2)
	tr.Add(1, 0, 50, 1)
	tr.Grow(4)
	if tr.N != 4 || tr.LinkBytes(0, 1) != 100 || tr.LinkMsgs(0, 1) != 2 || tr.LinkBytes(1, 0) != 50 {
		t.Fatalf("grow lost links: %v", tr.Links())
	}
	tr.Grow(3) // shrink request is a no-op
	if tr.N != 4 {
		t.Fatalf("grow shrank the table to %d", tr.N)
	}
}
