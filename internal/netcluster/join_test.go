package netcluster

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/shape"
)

// The initial join: ConnectOn admits its workers concurrently, so the
// cluster assembles in one round trip, and the first refusal cuts the
// other admissions short.

// TestConnectAdmitsConcurrently: four workers behind a 25 ms link (50 ms a
// round trip) must be admitted in under 2.5 round trips; one admission
// after another needs at least four. Worker 1's link is slower, so its ack
// arrives last: it must still be node 1, and every worker must hold the
// master's address book.
func TestConnectAdmitsConcurrently(t *testing.T) {
	const p = 4
	shaped := func(lat time.Duration) Config {
		return Config{Fingerprint: 7, JoinTimeout: 10 * time.Second, ShapeConn: shape.Config{Latency: lat}.Wrap}
	}
	addrs := make([]string, p)
	served := make([]chan *Node, p)
	for k := 1; k <= p; k++ {
		lat := 25 * time.Millisecond
		if k == 1 {
			lat = 40 * time.Millisecond
		}
		ln := listen(t)
		addrs[k-1] = ln.Addr().String()
		ch := make(chan *Node, 1)
		served[k-1] = ch
		go func() {
			w, err := ServeOn(ln, shaped(lat))
			if err != nil {
				t.Errorf("worker at %s: %v", ln.Addr(), err)
			}
			ch <- w
		}()
	}

	start := time.Now()
	master, err := ConnectOn(listen(t), addrs, shaped(25*time.Millisecond))
	took := time.Since(start)
	if err != nil {
		t.Fatalf("ConnectOn: %v", err)
	}
	t.Cleanup(func() { master.Close() })
	t.Logf("%d workers admitted in %s", p, took)
	if took >= 125*time.Millisecond {
		t.Errorf("ConnectOn took %s for %d workers with 50 ms round trips: want under 125 ms", took, p)
	}

	book, size := master.AddressBook()
	if size != p+1 || !slices.Equal(book[1:], addrs) {
		t.Fatalf("master's address book %v (size %d), want workers %v", book, size, addrs)
	}
	for k := 1; k <= p; k++ {
		w := <-served[k-1]
		if w == nil {
			t.Fatalf("worker %d did not join", k)
		}
		t.Cleanup(func() { w.Close() })
		if w.ID() != k {
			t.Errorf("the worker at workerAddrs[%d] is node %d, want %d", k-1, w.ID(), k)
		}
		if got, gotSize := w.AddressBook(); gotSize != size || !slices.Equal(got, book) {
			t.Errorf("worker %d holds address book %v (size %d), want %v (size %d)", k, got, gotSize, book, size)
		}
	}
}

// TestConnectRefusalCutsAdmissionShort: worker 1 accepts and never
// answers, worker 2 is loaded with another dataset. Worker 2's refusal
// must end the join at once, not after worker 1's 10 s JoinTimeout, and
// the error must be worker 2's own, not the echo of the halt in worker
// 1's admission — whether worker 1's admission is already waiting for its
// ack when the refusal arrives or, its conn held 100 ms by the master's
// ShapeConn hook, only dials it afterwards.
func TestConnectRefusalCutsAdmissionShort(t *testing.T) {
	for _, late := range []bool{false, true} {
		t.Run(fmt.Sprintf("late=%v", late), func(t *testing.T) {
			mute := hung(t, "127.0.0.1:0")
			ln := listen(t)
			refused := make(chan error, 1)
			go func() {
				_, err := ServeOn(ln, Config{Fingerprint: 2, JoinTimeout: 10 * time.Second})
				refused <- err
			}()
			cfg := Config{Fingerprint: 1, JoinTimeout: 10 * time.Second}
			if late {
				cfg.ShapeConn = func(conn net.Conn) net.Conn {
					if conn.RemoteAddr().String() == mute.Addr().String() {
						time.Sleep(100 * time.Millisecond)
					}
					return conn
				}
			}

			start := time.Now()
			n, err := Connect([]string{mute.Addr().String(), ln.Addr().String()}, cfg)
			took := time.Since(start)
			if err == nil {
				n.Close()
				t.Fatal("master assembled a cluster with a mismatched worker")
			}
			if took > time.Second {
				t.Errorf("ConnectOn failed after %s: the refusal did not cut the hung admission short", took)
			}
			if msg := err.Error(); !strings.Contains(msg, "worker 2 ") || !strings.Contains(msg, "fingerprint") {
				t.Errorf("err = %v, want worker 2's fingerprint refusal", err)
			}
			if werr := <-refused; werr == nil {
				t.Error("worker 2 accepted a mismatched fingerprint")
			}
		})
	}
}

// TestConnectRefusalStillWelcomesDialedWorkers: a worker the master has
// dialed when another worker's refusal halts the join still gets its
// welcome, so it learns of the failure on its master link instead of
// waiting out its JoinTimeout for a welcome that never comes. The
// master's ShapeConn hook holds worker 2's fresh conn for 100 ms, long
// after worker 1 (another fingerprint) has refused.
func TestConnectRefusalStillWelcomesDialedWorkers(t *testing.T) {
	mismatched, good := listen(t), listen(t)
	go ServeOn(mismatched, Config{Fingerprint: 2, JoinTimeout: 10 * time.Second})
	served := make(chan *Node, 1)
	go func() {
		w, _ := ServeOn(good, Config{Fingerprint: 1, JoinTimeout: 10 * time.Second})
		served <- w // nil when the join itself failed, which releases it too
	}()
	slow := func(conn net.Conn) net.Conn {
		if conn.RemoteAddr().String() == good.Addr().String() {
			time.Sleep(100 * time.Millisecond)
		}
		return conn
	}
	n, err := Connect([]string{mismatched.Addr().String(), good.Addr().String()},
		Config{Fingerprint: 1, JoinTimeout: 10 * time.Second, ShapeConn: slow})
	if err == nil {
		n.Close()
		t.Fatal("master assembled a cluster with a mismatched worker")
	}
	if !strings.Contains(err.Error(), "worker 1 ") {
		t.Errorf("err = %v, want worker 1's refusal", err)
	}
	select {
	case w := <-served:
		if w == nil {
			return
		}
		defer w.Abort()
		if msg := receiveKind(t, w, 2*time.Second); msg.Kind != cluster.KindPeerDown || msg.From != 0 {
			t.Fatalf("the welcomed worker got %+v, want its master's death", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker 2 is still waiting for a welcome after the join failed")
	}
}
