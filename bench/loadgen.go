package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator. All load comes from this process, over one keep-alive
// connection per client, with at most nproc clients — the generator shares
// the box's cores with the server, so more clients would measure the
// generator.
//
// Closed loop: each client sends its next request when the previous one has
// completed (callers that wait for a reply). Open loop: requests are due on
// a fixed schedule whatever the server does (independent users); a request
// is timed from when it was due, so a stall is charged to every request it
// delayed, and how late the generator itself ran is reported beside it.

// target is an endpoint and the requests to send it.
type target struct {
	url    string
	bodies [][]byte
	// check, when set, validates the response to bodies[i]; an error makes
	// the request a failed one.
	check func(i int, status int, body []byte) error
}

// loadResult is one load phase. Latencies are in microseconds.
type loadResult struct {
	lat     []float64 // per successful request: completion − start (closed) or − due (open)
	late    []float64 // open loop only: actual send − due, in schedule order
	sent    int
	failed  int
	failure string // first failure
	elapsed time.Duration
}

func (r *loadResult) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lat)) / r.elapsed.Seconds()
}

// client is one connection's worth of load.
type client struct {
	http *http.Client
	buf  bytes.Buffer
	res  loadResult
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

// do sends request i and records it against the instant from.
func (c *client) do(tgt *target, i int, from time.Time) {
	c.res.sent++
	err := c.roundTrip(tgt, i)
	if err != nil {
		c.res.failed++
		if c.res.failure == "" {
			c.res.failure = err.Error()
		}
		return
	}
	c.res.lat = append(c.res.lat, micros(time.Since(from)))
}

func (c *client) roundTrip(tgt *target, i int) error {
	resp, err := c.http.Post(tgt.url, "application/json", bytes.NewReader(tgt.bodies[i]))
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	if tgt.check != nil {
		return tgt.check(i, resp.StatusCode, c.buf.Bytes())
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func (c *client) close() { c.http.CloseIdleConnections() }

// merge folds the clients' results into one.
func merge(clients []*client, elapsed time.Duration) *loadResult {
	out := &loadResult{elapsed: elapsed}
	for _, c := range clients {
		out.lat = append(out.lat, c.res.lat...)
		out.sent += c.res.sent
		out.failed += c.res.failed
		if out.failure == "" {
			out.failure = c.res.failure
		}
		c.close()
	}
	return out
}

// closedLoop drives tgt from n clients for d: client c sends the requests
// order[c], order[c+n], ... and wraps around.
func closedLoop(tgt *target, n int, d time.Duration, order []int) *loadResult {
	clients := make([]*client, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range clients {
		clients[c] = newClient()
		wg.Add(1)
		go func(cl *client, first int) {
			defer wg.Done()
			for k := first; ; k += n {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				cl.do(tgt, order[k%len(order)], now)
			}
		}(clients[c], c)
	}
	wg.Wait()
	return merge(clients, time.Since(start))
}

// openLoop sends request k at start + k/rate, for d, from n clients that
// take the next due request off a shared counter. A client that finds its
// request already overdue sends at once: the backlog a slow server builds
// shows up as latency from the due time, not as requests never sent.
func openLoop(tgt *target, n int, rate float64, d time.Duration, order []int) *loadResult {
	clients := make([]*client, n)
	total := int64(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	late := make([]float64, total) // each request writes its own slot
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		clients[c] = newClient()
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				waitUntil(due)
				late[k] = micros(time.Since(due))
				cl.do(tgt, order[int(k)%len(order)], due)
			}
		}(clients[c])
	}
	wg.Wait()
	out := merge(clients, time.Since(start))
	out.late = late
	return out
}

// waitUntil sleeps only through waits long enough to afford it and yields
// through the rest. An idle Go scheduler waits in epoll, whose timeout has
// millisecond resolution (and on a virtual machine a halted processor is
// slow to wake on top of that), so a generator that sleeps between requests
// a fraction of a millisecond apart is itself late at every one of them.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinBelow:
			time.Sleep(d - spinBelow)
		default:
			runtime.Gosched()
		}
	}
}

const spinBelow = 2 * time.Millisecond

// backlogGrew reports whether an open-loop phase fell behind its schedule:
// the generator's lateness over the last quarter of the phase is past limit
// (µs) at the median, i.e. requests were still queueing when it ended.
func backlogGrew(r *loadResult, limit float64) bool {
	if len(r.late) < 8 {
		return false
	}
	return median(r.late[len(r.late)*3/4:]) > limit
}
