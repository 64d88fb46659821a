package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func stubTarget(t *testing.T, h http.HandlerFunc) *target {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &target{url: srv.URL, bodies: [][]byte{[]byte("{}")}}
}

// TestOpenLoopTimesFromDueTime: against a handler that takes a fixed 1 ms,
// every request is sent, none is faster than the handler, and lateness is
// reported for each.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	tgt := stubTarget(t, func(w http.ResponseWriter, r *http.Request) { time.Sleep(time.Millisecond) })
	res := openLoop(tgt, 2, 200, 500*time.Millisecond, []int{0})
	if res.sent != 100 || res.failed != 0 || len(res.lat) != 100 || len(res.late) != 100 {
		t.Fatalf("sent %d failed %d latencies %d lateness %d, want 100 0 100 100 (%s)", res.sent, res.failed, len(res.lat), len(res.late), res.failure)
	}
	for i, l := range res.lat {
		if l < 1000 {
			t.Errorf("request %d took %.0f µs, less than the handler's 1 ms", i, l)
		}
	}
	for k, l := range res.late {
		if l < 0 {
			t.Errorf("request %d was sent %.0f µs before it was due", k, -l)
		}
	}
}

// TestOpenLoopChargesAStallToLaterRequests: one stalled request delays the
// ones that fall due behind it, and their latency — counted from when they
// were due — must show it. A generator that timed from the actual send
// (coordinated omission) would report one slow request and the rest at 1 ms.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	var n atomic.Int64
	tgt := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(200 * time.Millisecond)
			return
		}
		time.Sleep(time.Millisecond)
	})
	// One client, a request due every 10 ms: ~20 fall due during the stall.
	res := openLoop(tgt, 1, 100, 600*time.Millisecond, []int{0})
	if res.failed != 0 {
		t.Fatalf("%d requests failed: %s", res.failed, res.failure)
	}
	slow, late := 0, 0
	for _, l := range res.lat {
		if l > 50_000 {
			slow++
		}
	}
	for _, l := range res.late {
		if l > 50_000 {
			late++
		}
	}
	if slow < 10 {
		t.Errorf("%d requests over 50 ms, want the ≥ 10 that were due during the 200 ms stall", slow)
	}
	if late < 9 {
		t.Errorf("lateness over 50 ms reported for %d requests, want ≥ 9", late)
	}
	if !backlogGrew(&loadResult{late: []float64{0, 0, 0, 0, 0, 0, 9000, 9000}}, 5000) || backlogGrew(res, 5000) {
		t.Error("backlogGrew: want true for a phase that ends behind schedule, false for one that recovered")
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	var inflight, peak atomic.Int64
	tgt := stubTarget(t, func(w http.ResponseWriter, r *http.Request) {
		if c := inflight.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
	})
	res := closedLoop(tgt, 2, 200*time.Millisecond, []int{0})
	if res.failed != 0 || len(res.lat) == 0 {
		t.Fatalf("%d of %d failed: %s", res.failed, res.sent, res.failure)
	}
	if peak.Load() > 2 {
		t.Errorf("%d requests in flight from 2 closed-loop clients", peak.Load())
	}
}

// TestSummarize: the percentile helper reports p50, p99, the highest
// percentile with at least ten samples beyond it, and the sample count.
func TestSummarize(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n             int
		p50, p99      float64
		tailPct, tail float64
	}{
		{15, 8, 15, 50, 8},                 // 1.5 samples beyond p90: only the median qualifies
		{100, 50, 99, 90, 90},              // 10 beyond p90, 1 beyond p99
		{1000, 500, 990, 99, 990},          // 10 beyond p99
		{20000, 10000, 19800, 99.9, 19980}, // 20 beyond p99.9, 2 beyond p99.99
	} {
		s := summarize(sample(c.n))
		if s.N != c.n || s.P50 != c.p50 || s.P99 != c.p99 || s.Tail.Percentile != c.tailPct || s.Tail.Value != c.tail {
			t.Errorf("n=%d: got %+v, want p50=%v p99=%v tail p%v=%v", c.n, s, c.p50, c.p99, c.tailPct, c.tail)
		}
	}
	if s := summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}
