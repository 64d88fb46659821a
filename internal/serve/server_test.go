package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
	"repro/internal/trace"
)

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestClassifyMatchesEvaluator pins the acceptance bar: for all three paper
// datasets, the served per-rule classification answers are bit-for-bit the
// coverage bitsets search.Evaluator computes — the serving stack (snapshot
// write/read, KB rebuild, machine pool, HTTP layer) changes nothing.
func TestClassifyMatchesEvaluator(t *testing.T) {
	dss, err := datasets.PaperScaled(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
			snap := NewSnapshot(ds.Name, fp, 1, ds.TrueConcept, ds.KB, ds.Budget, ds.Pos, ds.Neg)
			dir := t.TempDir()
			path, err := WriteSnapshot(dir, 1, snap)
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry(2)
			a, err := reg.LoadFile(SnapshotFile{Path: path, Seq: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Activate(a.ID); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewServer(reg))
			defer ts.Close()

			// Reference: the serial evaluator over the original dataset.
			ev := search.NewEvaluator(solve.NewMachine(ds.KB, ds.Budget), search.NewExamples(ds.Pos, ds.Neg))
			type ref struct{ pos, neg search.Bitset }
			refs := make([]ref, len(ds.TrueConcept))
			for ri := range ds.TrueConcept {
				p, n := ev.CoverageFull(&ds.TrueConcept[ri])
				refs[ri] = ref{p, n}
			}

			check := func(examples []string, isPos bool, offset int) {
				req := ClassifyRequest{Examples: examples}
				resp, body := postJSON(t, ts.Client(), ts.URL+"/classify", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("classify: %d %s", resp.StatusCode, body)
				}
				var cr ClassifyResponse
				if err := json.Unmarshal(body, &cr); err != nil {
					t.Fatal(err)
				}
				if len(cr.Results) != len(examples) {
					t.Fatalf("%d results for %d examples", len(cr.Results), len(examples))
				}
				for i, res := range cr.Results {
					wantAny := false
					for ri := range refs {
						var want bool
						if isPos {
							want = refs[ri].pos.Get(offset + i)
						} else {
							want = refs[ri].neg.Get(offset + i)
						}
						wantAny = wantAny || want
						if res.Rules[ri].Covered != want {
							t.Fatalf("example %s rule %d: served %v, evaluator %v",
								res.Example, ri, res.Rules[ri].Covered, want)
						}
					}
					if res.Covered != wantAny {
						t.Fatalf("example %s: served covered=%v, evaluator %v", res.Example, res.Covered, wantAny)
					}
					if res.Covered && res.Proof == nil {
						t.Fatalf("example %s covered but no proof", res.Example)
					}
					if res.Covered && res.Proof.Kind != "rule" && res.Proof.Kind != "fact" {
						t.Fatalf("example %s proof root kind %q", res.Example, res.Proof.Kind)
					}
				}
			}
			// Batch in chunks so requests stay realistic in size.
			const chunk = 64
			for lo := 0; lo < len(ds.Pos); lo += chunk {
				hi := min(lo+chunk, len(ds.Pos))
				strs := make([]string, 0, hi-lo)
				for _, e := range ds.Pos[lo:hi] {
					strs = append(strs, e.String())
				}
				check(strs, true, lo)
			}
			for lo := 0; lo < len(ds.Neg); lo += chunk {
				hi := min(lo+chunk, len(ds.Neg))
				strs := make([]string, 0, hi-lo)
				for _, e := range ds.Neg[lo:hi] {
					strs = append(strs, e.String())
				}
				check(strs, false, lo)
			}
		})
	}
}

func TestClassifyErrors(t *testing.T) {
	reg := NewRegistry(1)
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/classify", ClassifyRequest{Example: "eastbound(east1)"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no snapshot: got %d, want 503", resp.StatusCode)
	}

	snap := trainsSnapshot(t, 1, 99)
	a := reg.Add(snap, 1)
	if _, err := reg.Activate(a.ID); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ClassifyRequest{
		{},                               // no examples
		{Example: "eastbound("},          // parse error
		{Example: "eastbound(X)"},        // not ground
		{Examples: []string{"f(a", "g"}}, // parse error in batch
	} {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/classify", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %+v: got %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/activate", ActivateRequest{Snapshot: "v999"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown activate: got %d, want 404", resp.StatusCode)
	}
	// A body over the limit is refused with the usual JSON error shape.
	huge := strings.Repeat("x", maxRequestBody+1)
	for path, req := range map[string]any{
		"/classify": ClassifyRequest{Example: huge},
		"/activate": ActivateRequest{Snapshot: huge},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+path, req)
		var e map[string]string
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e) != nil || e["error"] == "" {
			t.Fatalf("oversized %s: got %d %.80s, want 413 with a JSON error", path, resp.StatusCode, body)
		}
	}
}

// TestHotSwapUnderFire is the hot-swap satellite: N goroutines hammer
// /classify while the main goroutine flips between two snapshot versions in
// a tight loop. Run under -race in CI. Every response must be 200 and
// internally consistent with exactly one version: the rule count in the
// response identifies the snapshot that must have answered all of it.
func TestHotSwapUnderFire(t *testing.T) {
	reg := NewRegistry(4)
	// Two versions with observably different theories: v1 serves one rule,
	// v2 two (the trains concept rule twice — same answers, different
	// shape, so a response's rule count names its snapshot).
	a1 := reg.Add(trainsSnapshot(t, 1, 1), 1)
	twoRules := trainsSnapshot(t, 2, 1)
	twoRules.Theory = append(twoRules.Theory, twoRules.Theory[0])
	a2 := reg.Add(twoRules, 2)
	if len(a1.Snap.Theory) != 1 || len(a2.Snap.Theory) != 2 {
		t.Fatalf("fixture theories: %d and %d rules", len(a1.Snap.Theory), len(a2.Snap.Theory))
	}
	if _, err := reg.Activate(a1.ID); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()

	rulesOf := map[string]int{a1.ID: 1, a2.ID: 2}
	const hammers = 8
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		served   atomic.Int64
	)
	stop := make(chan struct{})
	body, _ := json.Marshal(ClassifyRequest{Examples: []string{"eastbound(east1)", "eastbound(west8)"}})
	for range hammers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					t.Errorf("classify: %v", err)
					return
				}
				var cr ClassifyResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("classify status %d mid-swap", resp.StatusCode)
					continue
				}
				if err != nil {
					failures.Add(1)
					t.Errorf("decode: %v", err)
					continue
				}
				want, ok := rulesOf[cr.Snapshot]
				if !ok {
					failures.Add(1)
					t.Errorf("response from unknown snapshot %q", cr.Snapshot)
					continue
				}
				for _, res := range cr.Results {
					if len(res.Rules) != want {
						failures.Add(1)
						t.Errorf("snapshot %s answered %d rules, want %d — mixed versions in one response",
							cr.Snapshot, len(res.Rules), want)
					}
				}
				served.Add(1)
			}
		}()
	}
	// Flip versions as fast as the registry allows for a quarter second.
	swapUntil := time.Now().Add(250 * time.Millisecond)
	swaps := 0
	for time.Now().Before(swapUntil) {
		id := a1.ID
		if swaps%2 == 1 {
			id = a2.ID
		}
		if _, err := reg.Activate(id); err != nil {
			t.Fatal(err)
		}
		swaps++
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d inconsistent or failed responses", failures.Load())
	}
	if served.Load() == 0 || swaps < 2 {
		t.Fatalf("test did not exercise the swap: %d responses, %d swaps", served.Load(), swaps)
	}
	t.Logf("hot-swap: %d responses across %d swaps, zero failures", served.Load(), swaps)
}

// TestWatchFollowsPublishes runs the watcher against a directory a
// publisher is writing into, checking the registry tracks the newest
// version.
func TestWatchFollowsPublishes(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	swapped := make(chan *Artifact, 16)
	done := make(chan error, 1)
	go func() {
		done <- reg.Watch(ctx, dir, 5*time.Millisecond, func(a *Artifact) { swapped <- a })
	}()

	for seq := uint64(1); seq <= 3; seq++ {
		snap := trainsSnapshot(t, int(seq), int(seq))
		if _, err := WriteSnapshot(dir, seq, snap); err != nil {
			t.Fatal(err)
		}
		select {
		case a := <-swapped:
			if a.Seq != seq {
				t.Fatalf("activated seq %d, want %d", a.Seq, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher never activated seq %d", seq)
		}
		if got := reg.Active().Snap.Epoch; got != int(seq) {
			t.Fatalf("active epoch = %d, want %d", got, seq)
		}
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Watch returned %v", err)
	}
}

// referenceBody is the encoder /classify had before response plans: build
// the exported response structs and hand them to encoding/json, indented.
// It survives only here, as what the served bytes are held against.
func referenceBody(t *testing.T, art *Artifact, raw []string, wantProof bool) []byte {
	t.Helper()
	resp := ClassifyResponse{
		Snapshot:    art.ID,
		Epoch:       art.Snap.Epoch,
		Dataset:     art.Snap.Name,
		Fingerprint: fmt.Sprintf("%016x", art.Snap.Fingerprint),
		Results:     make([]ClassifyResult, len(raw)),
	}
	m := art.pool.Get()
	defer art.pool.Put(m)
	for i, e := range raw {
		ex, err := logic.ParseTerm(e)
		if err != nil {
			t.Fatal(err)
		}
		res := ClassifyResult{Example: e, Rules: make([]RuleAnswer, len(art.Snap.Theory))}
		for ri := range art.Snap.Theory {
			rule := &art.Snap.Theory[ri]
			covered := m.CoversExample(rule, ex)
			res.Rules[ri] = RuleAnswer{Rule: art.Rules[ri], Covered: covered}
			if covered && !res.Covered {
				res.Covered = true
				if wantProof {
					if proof, ok := m.ProveExample(rule, ex); ok {
						n := trace.NewProofNode(proof)
						res.Proof = &n
					}
				}
			}
		}
		resp.Results[i] = res
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// classifyInMemory runs one /classify request through the handler on a
// recorder and checks the framing every response must have.
func classifyInMemory(t *testing.T, h http.Handler, req ClassifyRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("classify %s: %d %s", b, rec.Code, rec.Body)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("Content-Length %q for a %s-byte body", got, want)
	}
	return rec.Body.Bytes()
}

// TestClassifyBytesMatchEncodingJSON is the differential test behind the
// response plan: the bytes /classify serves are exactly what json.Encoder
// with SetIndent("", "  ") writes for the exported response structs.
func TestClassifyBytesMatchEncodingJSON(t *testing.T) {
	type fixture struct {
		name     string
		snap     *Snapshot
		examples []string
	}
	var fixtures []fixture
	dss, err := datasets.PaperScaled(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss {
		fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
		f := fixture{name: ds.Name, snap: NewSnapshot(ds.Name, fp, 3, ds.TrueConcept, ds.KB, ds.Budget, ds.Pos, ds.Neg)}
		for _, e := range append(append([]logic.Term(nil), ds.Pos...), ds.Neg...) {
			f.examples = append(f.examples, e.String())
		}
		fixtures = append(fixtures, f)
	}
	trains := []string{"eastbound(east1)", "eastbound(west8)", "eastbound( east2 )", "eastbound('a<b & \"c\" ')"}
	empty := trainsSnapshot(t, 1, 0)
	fixtures = append(fixtures, fixture{"empty-theory", empty, trains})
	// A rule whose proof has a negation-as-failure node and a builtin, whose
	// text needs the backslash and HTML escapes, under a dataset name that
	// needs escaping too.
	naf := trainsSnapshot(t, 2, 1)
	naf.Name = "trains <naf>"
	naf.Theory = []logic.Clause{logic.MustParseClause(
		"eastbound(T) :- has_car(T, C), wheels(C, N), N < 3, \\+ open_car(C).")}
	fixtures = append(fixtures, fixture{"naf-proof", naf, trains})

	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			reg := NewRegistry(1)
			art := reg.Add(f.snap, 7)
			if _, err := reg.Activate(art.ID); err != nil {
				t.Fatal(err)
			}
			h := NewServer(reg)
			sawProof, sawNAF := false, false
			for _, proof := range []bool{true, false} {
				check := func(req ClassifyRequest, raw []string) {
					req.Proof = &proof
					got, want := classifyInMemory(t, h, req), referenceBody(t, art, raw, proof)
					if !bytes.Equal(got, want) {
						t.Fatalf("proof=%v %v: served bytes differ from encoding/json.\nGot:\n%s\nWant:\n%s", proof, raw, got, want)
					}
					sawProof = sawProof || bytes.Contains(got, []byte(`"proof": {`))
					sawNAF = sawNAF || bytes.Contains(got, []byte(`"kind": "naf"`))
				}
				for _, e := range f.examples {
					check(ClassifyRequest{Example: e}, []string{e})
				}
				const chunk = 16
				for lo := 0; lo < len(f.examples); lo += chunk {
					raw := f.examples[lo:min(lo+chunk, len(f.examples))]
					check(ClassifyRequest{Examples: raw}, raw)
				}
			}
			if f.name != "empty-theory" && !sawProof {
				t.Fatal("fixture never produced a proof")
			}
			if f.name == "naf-proof" && !sawNAF {
				t.Fatal("fixture never produced a naf proof node")
			}
		})
	}
}

// discardWriter is the cheapest http.ResponseWriter: what the handler itself
// allocates is all that is left to count.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestClassifyAllocCeiling keeps the request path from sliding back into
// per-rule or per-response-byte allocation. Proof off, what remains is
// request decoding, parsing the example and two response headers — 19
// allocations, 21 under -race where sync.Pool drops items. Building and
// reflecting over the response structs made 34 on the same request. Proof
// on adds the proof tree: 29 allocations (32 under -race), where a separate
// recursive recorder over an uncompiled rule made 51.
func TestClassifyAllocCeiling(t *testing.T) {
	reg := NewRegistry(1)
	snap := trainsSnapshot(t, 1, 1)
	for len(snap.Theory) < 32 {
		snap.Theory = append(snap.Theory, snap.Theory[0])
	}
	art := reg.Add(snap, 1)
	if _, err := reg.Activate(art.ID); err != nil {
		t.Fatal(err)
	}
	h := NewServer(reg)
	for _, c := range []struct {
		proof   bool
		ceiling float64
	}{{false, 25}, {true, 35}} {
		body := []byte(fmt.Sprintf(`{"example": "eastbound(east1)", "proof": %v}`, c.proof))
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/classify", rd)
		w := &discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			h.ServeHTTP(w, req)
		})
		if allocs > c.ceiling {
			t.Fatalf("proof=%v /classify made %.0f allocations per request, ceiling %.0f", c.proof, allocs, c.ceiling)
		}
		t.Logf("proof=%v /classify: %.0f allocs per request over %d rules", c.proof, allocs, len(snap.Theory))
	}
}
