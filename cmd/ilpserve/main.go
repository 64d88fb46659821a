// Command ilpserve serves classification queries over a learned theory
// snapshot (the learn-then-serve pipeline: `p2mdie -publish DIR` writes
// snapshots, ilpserve serves them).
//
// Serve one pinned snapshot file:
//
//	ilpserve -snapshot runs/trains/snap-0000000000000003.isnap -addr :8080
//
// Follow a live (or finished) learning run, hot-swapping to every new
// snapshot the master publishes:
//
//	p2mdie -dataset trains -workers 4 -publish runs/trains &
//	ilpserve -watch runs/trains -addr :8080
//
// Query it:
//
//	curl -s localhost:8080/classify -d '{"example": "eastbound(east1)"}'
//	curl -s localhost:8080/snapshots
//	curl -s localhost:8080/activate -d '{"snapshot": "v2"}'
//
// The first stdout line is always "ilpserve: listening on <addr>" so
// orchestrators can scrape the actual address when -addr uses port 0.
//
// Load numbers come from the repository benchmark, which drives this same
// handler over loopback HTTP: bash bench/run.sh --workload serve-classify.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
)

// A client that stalls before finishing its request headers, or that parks
// a keep-alive connection, must not hold that connection forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		snapshot = flag.String("snapshot", "", "serve this one snapshot file (pinned; no watching)")
		watch    = flag.String("watch", "", "watch this publish directory and hot-swap to each new snapshot (starts serving 503s until the first snapshot appears)")
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use host:0 for an ephemeral port)")
		machines = flag.Int("machines", 0, "solver machines per snapshot — the max classify requests answered concurrently (0 = GOMAXPROCS)")
		poll     = flag.Duration("poll", 200*time.Millisecond, "with -watch: directory poll interval")
		quiet    = flag.Bool("q", false, "suppress per-swap log lines")
	)
	flag.Parse()
	if (*snapshot == "") == (*watch == "") {
		fail(errors.New("need exactly one of -snapshot FILE or -watch DIR"))
	}

	reg := serve.NewRegistry(*machines)
	var pinned *serve.Artifact
	if *snapshot != "" {
		f := serve.SnapshotFile{Path: *snapshot, Seq: serve.SeqFromPath(*snapshot)}
		if f.Seq == 0 {
			f.Seq = 1 // a renamed file still gets a valid version id
		}
		a, err := reg.LoadFile(f)
		if err != nil {
			fail(err)
		}
		if _, err := reg.Activate(a.ID); err != nil {
			fail(err)
		}
		pinned = a
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// Always the first stdout line, so orchestrators can scrape the port.
	fmt.Printf("ilpserve: listening on %s\n", ln.Addr())
	if pinned != nil && !*quiet {
		logSwap(pinned)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *watch != "" {
		go func() {
			onSwap := logSwap
			if *quiet {
				onSwap = nil
			}
			if err := reg.Watch(ctx, *watch, *poll, onSwap); err != nil && !errors.Is(err, context.Canceled) {
				fail(err)
			}
		}()
	}

	httpSrv := &http.Server{
		Handler:           serve.NewServer(reg),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
}

// logSwap announces an activation: which version serves, from which epoch,
// with how many rules.
func logSwap(a *serve.Artifact) {
	fmt.Printf("ilpserve: serving %s — %s epoch %d, %d rules, fingerprint %016x\n",
		a.ID, a.Snap.Name, a.Snap.Epoch, len(a.Rules), a.Snap.Fingerprint)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ilpserve:", err)
	os.Exit(1)
}
