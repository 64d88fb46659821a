package main

import (
	"reflect"
	"testing"
)

func trainsTask(t *testing.T) *task {
	t.Helper()
	tk, err := buildTask(taskSpec{dataset: "trains", scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// TestTimedCovererPassesThrough: the covering loop replayed over a
// TimedCoverer learns the byte-identical theory with the identical work as
// covering.Learn over the bare evaluator.
func TestTimedCovererPassesThrough(t *testing.T) {
	tk := trainsTask(t)
	plain, err := seqWorkload().rep(tk)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	sh, err := shadowCovering(tk, tr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := theoryString(sh.res.theory), theoryString(plain.theory); got != want {
		t.Errorf("theories differ:\ndecorated:\n%s\nplain:\n%s", got, want)
	}
	if sh.res.out != plain.out {
		t.Errorf("outcomes differ: decorated %+v, plain %+v", sh.res.out, plain.out)
	}
	if sh.cov.Batches == 0 || sh.cov.Busy <= 0 {
		t.Errorf("decorator saw no coverage calls: %d batches, %v busy", sh.cov.Batches, sh.cov.Busy)
	}
	if err := tr.checkLanes(); err != nil {
		t.Error(err)
	}
}

// TestTimedTransportPassesThrough: a TCP run with every node under a
// TimedTransport learns the byte-identical theory and reports the identical
// per-link Traffic as the undecorated run — so core's capability probes
// (Traffic forwarding, Inner) still reach the netcluster node.
func TestTimedTransportPassesThrough(t *testing.T) {
	tk := trainsTask(t)
	cfg := p2Config(tk, tcpWorkers)
	plain, err := tcpLearn(tk, smokeLink, cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	timed, err := tcpLearn(tk, smokeLink, cfg, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := theoryString(timed.res.theory), theoryString(plain.res.theory); got != want {
		t.Errorf("theories differ:\ndecorated:\n%s\nplain:\n%s", got, want)
	}
	if timed.res.out != plain.res.out {
		t.Errorf("outcomes differ: decorated %+v, plain %+v", timed.res.out, plain.res.out)
	}
	if !reflect.DeepEqual(timed.res.met.Traffic, plain.res.met.Traffic) {
		t.Errorf("traffic differs:\ndecorated:\n%s\nplain:\n%s", timed.res.met.Traffic, plain.res.met.Traffic)
	}
	if plain.res.met.Traffic.TotalMsgs() == 0 {
		t.Error("traffic table is empty: Traffic() is not forwarded")
	}
	lanes := timed.lanes()
	if len(lanes) != tcpWorkers+1 {
		t.Fatalf("%d lanes, want %d", len(lanes), tcpWorkers+1)
	}
	for node, lane := range lanes {
		if lane.recvWait <= 0 || lane.wall < lane.recvWait+lane.send {
			t.Errorf("node %d: wall %v, recv-wait %v, send %v", node, lane.wall, lane.recvWait, lane.send)
		}
	}
	if err := tr.checkLanes(); err != nil {
		t.Error(err)
	}
}
