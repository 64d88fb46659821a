// Package shape throttles net.Conn traffic in userspace — a tc/netem
// in miniature that needs no root and no kernel qdiscs — so the TCP
// transport can be benchmarked on links that behave like real cluster
// interconnects instead of loopback.
//
// Two knobs, matching cluster.CostModel's two transfer terms:
//
//   - Latency: every byte becomes readable one propagation delay after
//     the peer wrote it. Implemented on the receive side: a pump
//     goroutine drains the underlying conn and stamps each chunk with a
//     due time; Read blocks until the head chunk matures.
//   - BandwidthBps: writes are paced through a token-bucket meter, so a
//     B-byte burst occupies the link for B/bandwidth seconds.
//
// A round trip over a wrapped pair therefore costs ~2×latency plus the
// bandwidth terms, and a one-way transfer costs latency + bytes/bw —
// exactly the shape of CostModel.TransferTime, which is what lets
// PERF.md compare sim-clock predictions against measured wall time on a
// shaped link.
//
// Deadlines are honoured: SetReadDeadline unblocks a Read waiting for
// a chunk to mature (netcluster's handshakes depend on this), and write
// deadlines pass through to the underlying conn after pacing.
package shape

import (
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config describes one link shape. The zero value shapes nothing.
type Config struct {
	// Latency is the one-way propagation delay added to every read.
	Latency time.Duration
	// BandwidthBps is the link bandwidth in bytes per second; 0 means
	// unlimited.
	BandwidthBps float64
}

// Enabled reports whether the config actually shapes anything.
func (c Config) Enabled() bool { return c.Latency > 0 || c.BandwidthBps > 0 }

func (c Config) String() string {
	if !c.Enabled() {
		return "unshaped"
	}
	parts := []string{}
	if c.Latency > 0 {
		parts = append(parts, fmt.Sprintf("lat=%s", c.Latency))
	}
	if c.BandwidthBps > 0 {
		parts = append(parts, fmt.Sprintf("bw=%.3gmbit", c.BandwidthBps*8/1e6))
	}
	return strings.Join(parts, ",")
}

// Parse reads a -shape flag value: comma-separated key=value pairs,
// e.g. "lat=5ms,bw=100mbit". Keys: lat (any time.Duration) and bw (a
// rate: <number>bit|kbit|mbit|gbit in bits per second, or a bare
// number in bytes per second).
func Parse(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return Config{}, fmt.Errorf("shape: %q is not key=value (want e.g. lat=5ms,bw=100mbit)", kv)
		}
		switch k {
		case "lat":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return Config{}, fmt.Errorf("shape: bad latency %q (want a duration like 5ms)", v)
			}
			c.Latency = d
		case "bw":
			bps, err := parseRate(v)
			if err != nil {
				return Config{}, err
			}
			c.BandwidthBps = bps
		default:
			return Config{}, fmt.Errorf("shape: unknown key %q (want lat or bw)", k)
		}
	}
	return c, nil
}

// rateUnits are the units a rate may carry, each with its worth in bits per
// second; a bare number is bytes per second.
var rateUnits = []struct {
	name string
	bits float64
}{{"gbit", 1e9}, {"mbit", 1e6}, {"kbit", 1e3}, {"bit", 1}, {"", 8}}

// parseRate converts "100mbit"-style rates to bytes per second. The unit is
// the rate's trailing letters and the rest must be a number, all of it; a
// rate that is not finite or is below 1 bit/s is refused.
func parseRate(s string) (float64, error) {
	cut := len(s)
	for cut > 0 && ('a' <= s[cut-1] && s[cut-1] <= 'z' || 'A' <= s[cut-1] && s[cut-1] <= 'Z') {
		cut--
	}
	num, unit := s[:cut], s[cut:]
	bits := 0.0
	for _, u := range rateUnits {
		if u.name == unit {
			bits = u.bits
		}
	}
	if bits == 0 {
		return 0, fmt.Errorf("shape: rate %q has unknown unit %q (want gbit, mbit, kbit, bit, or none for bytes/s)", s, unit)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("shape: bad rate %q (want e.g. 100mbit, 12.5mbit, or bytes/s)", s)
	}
	if v *= bits; math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
		return 0, fmt.Errorf("shape: rate %q is not a finite rate of at least 1 bit/s", s)
	}
	return v / 8, nil
}

// Wrap shapes one connection. With a zero config the conn is returned
// untouched.
func (c Config) Wrap(conn net.Conn) net.Conn {
	if !c.Enabled() {
		return conn
	}
	sc := &shapedConn{Conn: conn, cfg: c}
	sc.rcond = sync.NewCond(&sc.rmu)
	go sc.pump()
	return sc
}

// chunk is a received byte run and the instant it becomes deliverable.
type chunk struct {
	data []byte
	due  time.Time
}

type shapedConn struct {
	net.Conn
	cfg Config

	// Write pacing: wfree is when the simulated link next frees up.
	wmu   sync.Mutex
	wfree time.Time

	// Read path: pump appends matured-later chunks, Read consumes them.
	rmu    sync.Mutex
	rcond  *sync.Cond
	rqueue []chunk
	rerr   error     // terminal pump error (EOF, reset), after the queue drains
	rdl    time.Time // read deadline; zero = none
}

// pump drains the underlying conn as fast as TCP delivers, stamping
// each chunk one propagation delay into the future. Draining eagerly
// matters: the latency must not backpressure the peer's writes, or it
// would (wrongly) count against bandwidth too.
func (sc *shapedConn) pump() {
	buf := make([]byte, 32<<10)
	for {
		n, err := sc.Conn.Read(buf)
		if n > 0 {
			data := append([]byte(nil), buf[:n]...)
			sc.rmu.Lock()
			sc.rqueue = append(sc.rqueue, chunk{data: data, due: time.Now().Add(sc.cfg.Latency)})
			sc.rcond.Broadcast()
			sc.rmu.Unlock()
		}
		if err != nil {
			sc.rmu.Lock()
			sc.rerr = err
			sc.rcond.Broadcast()
			sc.rmu.Unlock()
			return
		}
	}
}

// waitUntil blocks (holding rmu) until roughly t, a broadcast, or
// spuriously — callers re-check their condition in a loop.
func (sc *shapedConn) waitUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.AfterFunc(d, func() {
		sc.rmu.Lock()
		sc.rcond.Broadcast()
		sc.rmu.Unlock()
	})
	sc.rcond.Wait()
	timer.Stop()
}

func (sc *shapedConn) Read(p []byte) (int, error) {
	sc.rmu.Lock()
	defer sc.rmu.Unlock()
	for {
		if !sc.rdl.IsZero() && !time.Now().Before(sc.rdl) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(sc.rqueue) > 0 {
			head := &sc.rqueue[0]
			now := time.Now()
			if head.due.After(now) {
				// Wake at whichever comes first: maturity or the deadline.
				wake := head.due
				if !sc.rdl.IsZero() && sc.rdl.Before(wake) {
					wake = sc.rdl
				}
				sc.waitUntil(wake)
				continue
			}
			n := copy(p, head.data)
			if n < len(head.data) {
				head.data = head.data[n:]
			} else {
				sc.rqueue = sc.rqueue[1:]
			}
			return n, nil
		}
		if sc.rerr != nil {
			return 0, sc.rerr
		}
		if sc.rdl.IsZero() {
			sc.rcond.Wait()
		} else {
			sc.waitUntil(sc.rdl)
		}
	}
}

// Write paces the burst through the bandwidth meter, then writes it
// whole to the underlying conn. The meter is a virtual link-busy clock:
// each burst reserves len/bw seconds of link time, and the writer
// sleeps until its reservation starts, so sustained throughput
// converges on BandwidthBps without per-byte sleeping.
func (sc *shapedConn) Write(p []byte) (int, error) {
	if sc.cfg.BandwidthBps > 0 && len(p) > 0 {
		sc.wmu.Lock()
		now := time.Now()
		if sc.wfree.Before(now) {
			sc.wfree = now
		}
		start := sc.wfree
		sc.wfree = start.Add(time.Duration(float64(len(p)) / sc.cfg.BandwidthBps * float64(time.Second)))
		sc.wmu.Unlock()
		time.Sleep(time.Until(start))
	}
	return sc.Conn.Write(p)
}

func (sc *shapedConn) SetReadDeadline(t time.Time) error {
	sc.rmu.Lock()
	sc.rdl = t
	sc.rcond.Broadcast()
	sc.rmu.Unlock()
	// The pump owns reads on the underlying conn and must keep running
	// past caller deadlines, so the deadline is enforced locally only.
	return nil
}

func (sc *shapedConn) SetWriteDeadline(t time.Time) error {
	return sc.Conn.SetWriteDeadline(t)
}

func (sc *shapedConn) SetDeadline(t time.Time) error {
	err := sc.SetWriteDeadline(t)
	sc.SetReadDeadline(t)
	return err
}
