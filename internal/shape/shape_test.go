package shape

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Config
		err  bool
	}{
		{"", Config{}, false},
		{"lat=5ms", Config{Latency: 5 * time.Millisecond}, false},
		{"bw=100mbit", Config{BandwidthBps: 12.5e6}, false},
		{"lat=5ms,bw=100mbit", Config{Latency: 5 * time.Millisecond, BandwidthBps: 12.5e6}, false},
		{"bw=1gbit", Config{BandwidthBps: 125e6}, false},
		{"bw=8kbit", Config{BandwidthBps: 1e3}, false},
		{"bw=1000000", Config{BandwidthBps: 1e6}, false}, // bare bytes/s
		{"lat=abc", Config{}, true},
		{"lat=-5ms", Config{}, true},
		{"bw=0mbit", Config{}, true},
		{"bw=12.5mbit", Config{BandwidthBps: 1.5625e6}, false},
		{"bw=1bit", Config{BandwidthBps: 0.125}, false},
		{"bw=0.5bit", Config{}, true},    // below 1 bit/s
		{"bw=0.1", Config{}, true},       // 0.8 bit/s
		{"bw=1e-300bit", Config{}, true}, // pacing would overflow time.Duration
		{"bw=1e999gbit", Config{}, true},
		{"bw=1e300gbit", Config{}, true}, // finite number, infinite rate
		{"bw=NaN", Config{}, true},
		{"bw=Infmbit", Config{}, true},
		{"bw=-5mbit", Config{}, true},
		{"bw=mbit", Config{}, true},
		{"bw=", Config{}, true},
		{"bw=100Mbit", Config{}, true}, // units are lower case
		{"bw=10mbps", Config{}, true},
		{"bw=12.5MB", Config{}, true},
		{"bw=5x", Config{}, true},
		{"bw=5 mbit", Config{}, true},
		{"bw=100mbit5", Config{}, true},
		{"speed=9", Config{}, true},
		{"latency", Config{}, true},
	} {
		got, err := Parse(tc.in)
		if (err != nil) != tc.err {
			t.Fatalf("Parse(%q): err = %v, want error=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestZeroConfigWrapsNothing(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := (Config{}).Wrap(a); got != a {
		t.Fatal("zero config wrapped the conn")
	}
}

// pipePair returns a shaped TCP loopback pair: c1 is wrapped, c2 raw.
func pipePair(t *testing.T, cfg Config) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { c1.Close(); r.c.Close() })
	return cfg.Wrap(c1), r.c
}

// TestLatencyDelaysReads pins the propagation-delay half: a byte written
// by the peer becomes readable only one latency later.
func TestLatencyDelaysReads(t *testing.T) {
	const lat = 50 * time.Millisecond
	shaped, raw := pipePair(t, Config{Latency: lat})
	start := time.Now()
	if _, err := raw.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := shaped.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("read completed in %v, want >= %v", d, lat)
	}
}

// TestBandwidthPacesWrites pins the throughput half: shipping n bytes
// through a bw-limited conn takes at least n/bw seconds.
func TestBandwidthPacesWrites(t *testing.T) {
	const bw = 1 << 20 // 1 MiB/s
	shaped, raw := pipePair(t, Config{BandwidthBps: bw})
	go func() {
		buf := make([]byte, 32<<10)
		for {
			if _, err := raw.Read(buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 256<<10) // 256 KiB at 1 MiB/s = 250ms
	start := time.Now()
	for off := 0; off < len(payload); off += 32 << 10 {
		if _, err := shaped.Write(payload[off : off+32<<10]); err != nil {
			t.Fatal(err)
		}
	}
	want := time.Duration(float64(len(payload)-32<<10) / bw * float64(time.Second))
	if d := time.Since(start); d < want {
		t.Fatalf("wrote %d bytes in %v, want >= %v at %d B/s", len(payload), d, want, bw)
	}
}

// TestReadDeadlineUnblocks pins the deadline contract the join handshakes
// rely on: a Read waiting out the latency returns ErrDeadlineExceeded
// when the deadline lands first, and the conn remains usable after.
func TestReadDeadlineUnblocks(t *testing.T) {
	shaped, raw := pipePair(t, Config{Latency: 10 * time.Second})
	shaped.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	done := make(chan error, 1)
	go func() {
		_, err := shaped.Read(buf)
		done <- err
	}()
	if _, err := raw.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read err = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read did not honor the deadline")
	}
}

// TestEOFAfterQueueDrains pins shutdown ordering: data already in flight
// is still delivered (after its latency) before the peer's close
// surfaces as an error.
func TestEOFAfterQueueDrains(t *testing.T) {
	shaped, raw := pipePair(t, Config{Latency: 20 * time.Millisecond})
	if _, err := raw.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	buf := make([]byte, 8)
	n, err := shaped.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("read after close: %q, %v", buf[:n], err)
	}
	if _, err := shaped.Read(buf); err == nil {
		t.Fatal("second read succeeded after peer close")
	}
}

func TestString(t *testing.T) {
	if got := (Config{}).String(); got != "unshaped" {
		t.Fatalf("zero config String() = %q", got)
	}
	c := Config{Latency: 5 * time.Millisecond, BandwidthBps: 12.5e6}
	if got := c.String(); got != "lat=5ms,bw=100mbit" {
		t.Fatalf("String() = %q", got)
	}
}
