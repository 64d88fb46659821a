package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	serveClients = 2 // = nproc on the reference box; also ilpserve's -machines
	sloLimitUs   = 5000
	swapEvery    = 250 * time.Millisecond
	responseHead = "{\n  \"snapshot\": \""
)

var snapshotID = regexp.MustCompile(`^v[0-9]+$`)

// service is one complete set-up of the serving tier: a theory learned on
// the simulated cluster, published as a snapshot, read back, compiled into
// a registry and served by a real http.Server on loopback.
type service struct {
	t      *task
	learn  *repResult
	snap   *serve.Snapshot
	reg    *serve.Registry
	server *http.Server
	done   chan error
	url    string
	dir    string

	writeMs, readMs, compileMs, activateUs float64
	snapshotBytes                          int64
}

func startService(o options) (*service, error) {
	t, err := buildTask(taskSpecs[wlServe][o.size()])
	if err != nil {
		return nil, err
	}
	ds := t.ds
	s := &service{t: t}
	// The served theory is learned on every example (a deployment trains on
	// all the data it has), by the paper's algorithm.
	s.learn, err = func() (*repResult, error) {
		full := *t
		full.fold.TrainPos, full.fold.TrainNeg = ds.Pos, ds.Neg
		return simLearn(&full, p2Config(&full, simWorkers))
	}()
	if err != nil {
		return nil, fmt.Errorf("learn the served theory: %w", err)
	}
	if s.dir, err = os.MkdirTemp(o.outDir, "serve-"); err != nil {
		return nil, err
	}

	fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
	snap := serve.NewSnapshot(ds.Name, fp, s.learn.met.Epochs, s.learn.theory, ds.KB, ds.Budget, ds.Pos, ds.Neg)
	start := time.Now()
	path, err := serve.WriteSnapshot(s.dir, 1, snap)
	if err != nil {
		return nil, err
	}
	s.writeMs = millis(time.Since(start))
	if st, err := os.Stat(path); err == nil {
		s.snapshotBytes = st.Size()
	}
	start = time.Now()
	if s.snap, err = serve.ReadSnapshot(path); err != nil {
		return nil, err
	}
	s.readMs = millis(time.Since(start))

	s.reg = serve.NewRegistry(serveClients)
	start = time.Now()
	art := s.reg.Add(s.snap, 1)
	s.compileMs = millis(time.Since(start))
	start = time.Now()
	if _, err := s.reg.Activate(art.ID); err != nil {
		return nil, err
	}
	s.activateUs = micros(time.Since(start))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/classify"
	s.server = &http.Server{Handler: serve.NewServer(s.reg)}
	s.done = make(chan error, 1)
	go func() { s.done <- s.server.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, waits for its goroutine and removes the
// published snapshots.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.server.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	os.RemoveAll(s.dir)
	return err
}

// queries is the request pool: one /classify request per training example,
// with the response each must get. Responses are deterministic per example
// and snapshot, so after one decoded check against the offline evaluator
// (verify), the hot path compares bytes.
type queries struct {
	examples []string
	labels   []bool
	withPf   [][]byte // request bodies, proof on
	noPf     [][]byte // request bodies, proof off
	tails    [][]byte // expected response after the snapshot id, proof on
	tailsNo  [][]byte // the same, proof off
	mu       sync.Mutex
	versions map[string]int
}

func newQueries(ds *task) (*queries, error) {
	q := &queries{versions: map[string]int{}}
	off := false
	add := func(e logic.Term, label bool) error {
		s := e.String()
		with, err := json.Marshal(serve.ClassifyRequest{Example: s})
		if err != nil {
			return err
		}
		without, err := json.Marshal(serve.ClassifyRequest{Example: s, Proof: &off})
		if err != nil {
			return err
		}
		q.examples = append(q.examples, s)
		q.labels = append(q.labels, label)
		q.withPf = append(q.withPf, with)
		q.noPf = append(q.noPf, without)
		return nil
	}
	for _, e := range ds.ds.Pos {
		if err := add(e, true); err != nil {
			return nil, err
		}
	}
	for _, e := range ds.ds.Neg {
		if err := add(e, false); err != nil {
			return nil, err
		}
	}
	q.tails = make([][]byte, len(q.examples))
	q.tailsNo = make([][]byte, len(q.examples))
	return q, nil
}

// splitResponse cuts a /classify response into its snapshot id and the rest.
func splitResponse(body []byte) (id string, tail []byte, err error) {
	if !bytes.HasPrefix(body, []byte(responseHead)) {
		return "", nil, fmt.Errorf("response does not start with the snapshot field: %.60q", body)
	}
	rest := body[len(responseHead):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !snapshotID.Match(rest[:end]) {
		return "", nil, fmt.Errorf("response names no single snapshot version: %.60q", body)
	}
	return string(rest[:end]), rest[end:], nil
}

// verify sends every example once, decodes the answer and holds it against
// the offline search.Evaluator on the original KB — per-rule bits, the
// theory answer, the presence of a proof — then keeps the bytes as the
// expected response. It returns the accuracy of the served answers against
// the examples' labels.
func (q *queries) verify(s *service, proof bool, r *report) (accuracyPct float64, err error) {
	ds := s.t.ds
	ex := search.NewExamples(ds.Pos, ds.Neg)
	ev := search.NewEvaluator(solve.NewMachine(ds.KB, ds.Budget), ex)
	rules := make([]*logic.Clause, len(s.learn.theory))
	for i := range s.learn.theory {
		rules[i] = &s.learn.theory[i]
	}
	bits := ev.CoverageFullBatch(rules)

	bodies, tails := q.withPf, q.tails
	if !proof {
		bodies, tails = q.noPf, q.tailsNo
	}
	cl := newClient()
	defer cl.close()
	correct := 0
	for i := range q.examples {
		resp, err := cl.http.Post(s.url, "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			return 0, fmt.Errorf("verify %s: %w", q.examples[i], err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("verify %s: %w", q.examples[i], err)
		}
		var got serve.ClassifyResponse
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("verify %s: status %d, decode: %v", q.examples[i], resp.StatusCode, err)
		}
		r.op(func() error {
			if len(got.Results) != 1 || len(got.Results[0].Rules) != len(rules) {
				return fmt.Errorf("%s: malformed response", q.examples[i])
			}
			res := got.Results[0]
			any := false
			for ri := range rules {
				var want bool
				if q.labels[i] {
					want = bits[ri].Pos.Get(i)
				} else {
					want = bits[ri].Neg.Get(i - len(ds.Pos))
				}
				if res.Rules[ri].Covered != want {
					return fmt.Errorf("%s: rule %d served %v, offline evaluator says %v", q.examples[i], ri, res.Rules[ri].Covered, want)
				}
				any = any || want
			}
			if res.Covered != any || (res.Proof != nil) != (any && proof) {
				return fmt.Errorf("%s: covered=%v proof=%v, want covered=%v", q.examples[i], res.Covered, res.Proof != nil, any)
			}
			return nil
		}())
		if len(got.Results) == 1 && got.Results[0].Covered == q.labels[i] {
			correct++
		}
		_, tail, err := splitResponse(body)
		if err != nil {
			return 0, err
		}
		tails[i] = append([]byte(nil), tail...)
	}
	return 100 * float64(correct) / float64(len(q.examples)), nil
}

// target builds the load generator's view of the pool; every response is
// checked byte for byte and its snapshot version counted.
func (q *queries) target(url string, proof bool) *target {
	bodies, tails := q.withPf, q.tails
	if !proof {
		bodies, tails = q.noPf, q.tailsNo
	}
	return &target{url: url, bodies: bodies, check: func(i, status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d", q.examples[i], status)
		}
		id, tail, err := splitResponse(body)
		if err != nil {
			return err
		}
		if !bytes.Equal(tail, tails[i]) {
			return fmt.Errorf("%s: response differs from the verified one", q.examples[i])
		}
		q.mu.Lock()
		q.versions[id]++
		q.mu.Unlock()
		return nil
	}}
}

func runServe(o options) (*report, error) {
	chk, err := newChecker(o)
	if err != nil {
		return nil, err
	}
	r := newReport(o)

	// Set-up, three times over for a median: learn, publish, load, listen.
	var s *service
	var setups []float64
	for i := 0; i < o.times(3); i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if s, err = startService(o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.op(chk.check(s.learn.out))
	}
	defer s.stop()
	if o.updateGolden {
		if err := updateGolden(o.workload, o.size(), s.learn.out); err != nil {
			return nil, err
		}
	}
	r.timing("setup_s", setups)
	ds := s.t.ds
	r.info("task: %s %d+/%d-, %d theory clauses, snapshot %d B, %d clients, %d machines", ds.Name, len(ds.Pos), len(ds.Neg),
		len(s.learn.theory), s.snapshotBytes, serveClients, serveClients)

	q, err := newQueries(s.t)
	if err != nil {
		return nil, err
	}
	// The verifying pass doubles as the warm-up.
	accuracy, err := q.verify(s, true, r)
	if err != nil {
		return nil, err
	}
	r.set("accuracy_pct", accuracy)
	order := newXorshift(o.seed).perm(len(q.examples))
	phase := func(share float64) time.Duration {
		if o.smoke {
			return 300 * time.Millisecond
		}
		return o.duration(share)
	}

	// Phase 1 — closed loop, proofs on: the end-to-end numbers.
	share := 1.0
	if o.trace {
		share = 0.25
	}
	cpu0 := cpuTime()
	closed := closedLoop(q.target(s.url, true), serveClients, phase(share), order)
	cpu := cpuTime() - cpu0
	r.ops(closed.sent, closed.failed, closed.failure)
	if len(closed.lat) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %s", o.workload, closed.failure)
	}
	sum := summarize(closed.lat)
	r.set("op_wall_ms", sum.P50/1e3)
	r.note("op_wall_ms", "n=%d p99=%.4g p%g=%.4g (ms)", sum.N, sum.P99/1e3, sum.Tail.Percentile, sum.Tail.Value/1e3)
	r.set("op_cpu_ms", millis(cpu)/float64(len(closed.lat)))
	r.set("examples_per_s", closed.qps())
	r.set("peak_rss_mb", peakRSSMB())
	if !o.trace {
		return r, nil
	}

	r.set("serve.classify_qps", closed.qps())
	r.set("serve.classify_p50_us", sum.P50)
	r.set("serve.classify_p99_us", sum.P99)
	r.note("serve.classify_p99_us", "n=%d", sum.N)
	r.set("serve.classify_p999_us", rank(sortedCopy(closed.lat), 999, 1000))
	sent, failed := closed.sent, closed.failed

	// Phases 2 and 3 — open loop at fixed rates, timed from the due time.
	slo := 0.0
	for _, rate := range []float64{2000, 5000} {
		open := openLoop(q.target(s.url, true), serveClients, rate, phase(0.15), order)
		r.ops(open.sent, open.failed, open.failure)
		sent, failed = sent+open.sent, failed+open.failed
		lat, name := summarize(open.lat), fmt.Sprintf("serve.classify_open_p99_us_r%.0f", rate)
		r.set(name, lat.P99)
		r.note(name, "n=%d p50=%.4g", lat.N, lat.P50)
		r.set(fmt.Sprintf("serve.open_late_p99_us_r%.0f", rate), summarize(open.late).P99)
		if open.failed == 0 && lat.P99 <= sloLimitUs && !backlogGrew(open, sloLimitUs) {
			slo = rate
		}
	}
	r.set("serve.classify_slo_rate_rps", slo)

	// Phase 4 — closed loop while a control goroutine publishes, loads and
	// activates a new snapshot every 250 ms: writes beside reads.
	stopSwaps := make(chan struct{})
	swapped := make(chan swapResult, 1)
	go func() { swapped <- s.swapLoop(stopSwaps) }()
	swapLoad := closedLoop(q.target(s.url, true), serveClients, phase(0.15), order)
	close(stopSwaps)
	sw := <-swapped
	if sw.err != nil {
		return nil, fmt.Errorf("%s: hot-swap loop: %w", o.workload, sw.err)
	}
	r.ops(swapLoad.sent, swapLoad.failed, swapLoad.failure)
	sent, failed = sent+swapLoad.sent, failed+swapLoad.failed
	r.set("serve.classify_swap_p99_us", summarize(swapLoad.lat).P99)
	r.set("serve.swaps", float64(sw.n))
	r.note("serve.swaps", "%d snapshot versions answered", len(q.versions))
	r.set("serve.activate_us", median(append(sw.activateUs, s.activateUs)))

	// The prover-free contrast: proofs off.
	if _, err := q.verify(s, false, r); err != nil {
		return nil, err
	}
	noPf := closedLoop(q.target(s.url, false), serveClients, phase(0.1), order)
	r.ops(noPf.sent, noPf.failed, noPf.failure)
	sent, failed = sent+noPf.sent, failed+noPf.failed
	r.set("serve.qps_noproof", noPf.qps())
	r.set("serve.p50_us_noproof", summarize(noPf.lat).P50)
	r.set("serve.requests_sent", float64(sent))
	r.set("serve.requests_failed", float64(failed))

	// The request path, layer by layer, and the traced requests.
	tr := newTracer()
	if err := s.probeHandler(q, order, sum.P50, tr, r); err != nil {
		return nil, err
	}
	r.op(tr.checkLanes())
	if err := tr.writeChrome(o.tracePath()); err != nil {
		return nil, err
	}
	r.info("trace: %s", o.tracePath())

	r.set("serve.snapshot_write_ms", s.writeMs)
	r.set("serve.snapshot_read_ms", s.readMs)
	r.set("serve.snapshot_bytes", float64(s.snapshotBytes))
	r.set("serve.compile_ms", s.compileMs)
	if err := s.probeEnvelope(r); err != nil {
		return nil, err
	}
	r.set("datasets.generate_ms", millis(s.t.genTime))
	r.set("datasets.pos", float64(len(ds.Pos)))
	r.set("datasets.neg", float64(len(ds.Neg)))
	r.set("datasets.kb_clauses", float64(ds.KB.Size()))
	r.set("solve.kb_compile_ms", millis(compileKB(ds.KB.Clone(), ds.Pos[0])))
	r.set("solve.inferences", float64(s.learn.out.Inferences))
	recordP2(r.ms, s.learn.met)
	return r, nil
}

type swapResult struct {
	n          int
	activateUs []float64
	err        error
}

// swapLoop republishes the served snapshot under a new sequence number every
// swapEvery until stop closes: WriteSnapshot → LoadFile → Activate, the
// path a live `p2mdie -publish` run drives through `ilpserve -watch`.
func (s *service) swapLoop(stop <-chan struct{}) swapResult {
	var out swapResult
	tick := time.NewTicker(swapEvery)
	defer tick.Stop()
	for seq := uint64(2); ; seq++ {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		path, err := serve.WriteSnapshot(s.dir, seq, s.snap)
		if err != nil {
			out.err = err
			return out
		}
		art, err := s.reg.LoadFile(serve.SnapshotFile{Path: path, Seq: seq})
		if err != nil {
			out.err = err
			return out
		}
		start := time.Now()
		if _, err := s.reg.Activate(art.ID); err != nil {
			out.err = err
			return out
		}
		out.activateUs = append(out.activateUs, micros(time.Since(start)))
		out.n++
	}
}

// probeHandler times the request path from outside: the whole handler on an
// in-memory recorder, then each exported step it is made of on the same
// inputs — request decoding, term parsing, pool checkout, coverage over the
// theory, proof construction and rendering, response encoding. What the
// steps do not account for is the handler's own work; what the handler does
// not account for in a loopback round trip is net/http and the generator.
func (s *service) probeHandler(q *queries, order []int, roundTripP50 float64, tr *tracer, r *report) error {
	art := s.reg.Active()
	handler := serve.NewServer(s.reg)
	n := min(len(order), 400)
	var handlerUs, decodeUs, parseNs, checkoutNs, proveUs, proofUs, encodeUs, sizes []float64
	for _, i := range order[:n] {
		req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(q.withPf[i]))
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		handlerUs = append(handlerUs, micros(time.Since(start)))
		sizes = append(sizes, float64(rec.Body.Len()))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d for %s", rec.Code, q.examples[i])
		}

		var creq serve.ClassifyRequest
		start = time.Now()
		if err := json.NewDecoder(bytes.NewReader(q.withPf[i])).Decode(&creq); err != nil {
			return fmt.Errorf("handler probe: %w", err)
		}
		decodeUs = append(decodeUs, micros(time.Since(start)))

		start = time.Now()
		ex, err := logic.ParseTerm(creq.Example)
		parseNs = append(parseNs, float64(time.Since(start)))
		if err != nil {
			return fmt.Errorf("handler probe: %w", err)
		}

		start = time.Now()
		m := art.Pool().Get()
		checkoutNs = append(checkoutNs, float64(time.Since(start)))

		start = time.Now()
		first := -1
		for ri := range art.Snap.Theory {
			if m.CoversExample(&art.Snap.Theory[ri], ex) && first < 0 {
				first = ri
			}
		}
		proveUs = append(proveUs, micros(time.Since(start)))

		start = time.Now()
		if first >= 0 {
			if proof, ok := m.ProveExample(&art.Snap.Theory[first], ex); ok {
				_ = trace.NewProofNode(proof)
			}
		}
		proofUs = append(proofUs, micros(time.Since(start)))
		art.Pool().Put(m)

		var resp serve.ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("handler probe: %w", err)
		}
		start = time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("handler probe: %w", err)
		}
		encodeUs = append(encodeUs, micros(time.Since(start)))
	}
	h := median(handlerUs)
	parts := median(decodeUs) + median(parseNs)/1e3 + median(checkoutNs)/1e3 + median(proveUs) + median(proofUs) + median(encodeUs)
	r.set("serve.handler_us", h)
	r.note("serve.handler_us", "n=%d", n)
	r.set("serve.http_stack_us", roundTripP50-h)
	r.set("serve.json_decode_us", median(decodeUs))
	r.set("logic.parse_term_ns", median(parseNs))
	r.set("solve.pool_checkout_ns", median(checkoutNs))
	r.set("serve.prove_us", median(proveUs))
	r.set("solve.covers_ns", 1e3*median(proveUs)/float64(max(1, len(art.Snap.Theory))))
	r.set("serve.proof_us", median(proofUs))
	r.set("solve.prove_example_ns", 1e3*median(proofUs))
	r.set("serve.json_encode_us", median(encodeUs))
	r.set("serve.handler_self_us", h-parts)
	r.set("serve.response_bytes", median(sizes))
	return s.traceRequests(handler, q, order[:n], roundTripP50, tr, r)
}

// traceRequests runs a short closed loop against a second listener whose
// handler is decorated: one lane per client, each request a client span with
// the server's handler span under it.
func (s *service) traceRequests(handler http.Handler, q *queries, order []int, roundTripP50 float64, tr *tracer, r *report) error {
	n := len(order)
	traced := &tracedHandler{inner: handler, tr: tr}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: traced}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/classify"
	var wg sync.WaitGroup
	tracedUs := make([][]float64, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lane := fmt.Sprintf("client%d", c+1)
			cl := newClient()
			defer cl.close()
			begin := time.Now()
			root := tr.open(lane, "closed loop", 0, 0, begin)
			for k := c; k < 2*n; k += serveClients {
				op := k + 1
				start := time.Now()
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(q.withPf[order[k%n]]))
				if err != nil {
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				id := tr.open(lane, "POST /classify", root, op, start)
				req.Header.Set(spanHeader, fmt.Sprintf("%d %d %s", id, op, lane))
				resp, err := cl.http.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				end := time.Now()
				tr.close(id, end)
				tracedUs[c] = append(tracedUs[c], micros(end.Sub(start)))
			}
			tr.close(root, time.Now())
		}(c)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	<-done
	var all []float64
	for _, us := range tracedUs {
		all = append(all, us...)
	}
	r.set("bench.trace_overhead_pct", 100*(median(all)/roundTripP50-1))
	r.note("bench.trace_overhead_pct", "traced n=%d", len(all))
	return nil
}

// spanHeader carries the client span's identity to the decorating handler,
// so the server-side span can name its cause.
const spanHeader = "X-Bench-Span"

// tracedHandler decorates an http.Handler with a span per request, parented
// on the client span named in the request header.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var parent, op int
	var lane string
	fmt.Sscanf(req.Header.Get(spanHeader), "%d %d %s", &parent, &op, &lane)
	start := time.Now()
	h.inner.ServeHTTP(w, req)
	h.tr.add(lane, "serve.ServeHTTP", parent, op, start, time.Now())
}

// probeEnvelope times the wire compression envelope on the published
// snapshot's payload, as WriteSnapshot and ReadSnapshot apply it.
func (s *service) probeEnvelope(r *report) error {
	payload, err := ckpt.ReadFile(serve.SnapshotPath(s.dir, 1))
	if err != nil {
		return fmt.Errorf("envelope probe: %w", err)
	}
	var comp, decomp []float64
	var body []byte
	for i := 0; i < 5; i++ {
		start := time.Now()
		if body, err = wire.Decompress(payload); err != nil {
			return fmt.Errorf("envelope probe: %w", err)
		}
		decomp = append(decomp, micros(time.Since(start)))
		raw := append([]byte{0}, body...) // leading 0x00 = raw-envelope flag
		start = time.Now()
		wire.Compress(raw)
		comp = append(comp, micros(time.Since(start)))
	}
	r.set("wire.compress_us", median(comp))
	r.set("wire.decompress_us", median(decomp))
	return nil
}
