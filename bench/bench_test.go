package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads in-process at tiny scale, untraced and
// traced, and asserts only what cannot depend on the machine: every declared
// metric is emitted and finite, every checked operation passed (goldens for
// the smoke sizes included), and the metrics a workload exists for are not
// zero. It asserts no timing.
func TestSmoke(t *testing.T) {
	mustBeSet := map[string][]string{
		wlSeq:   {"solve.coverage_self_s", "search.nodes_generated", "bottom.literals", "covering.searches"},
		wlSim:   {"core.epochs", "cluster.virtual_makespan_s", "cluster.events", "wire.bytes_total", "core.worker_recv_wait_s", "parcov.msgs"},
		wlTCP:   {"core.epochs", "netcluster.conn_bytes", "core.master_recv_wait_s", "ckpt.bytes", "wire.bytes_k02", "netcluster.join_ms"},
		wlServe: {"serve.handler_us", "serve.classify_qps", "serve.json_encode_us", "serve.swaps", "serve.snapshot_bytes", "wire.compress_us"},
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 1, trace: trace, smoke: true, reps: 1, outDir: t.TempDir(), sharedProcess: true}
			r, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, r.failed, r.attempted, r.failures)
			}
			res, err := r.result(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (emitted %v)", w.Name, trace, d.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, v.Value)
				}
			}
			if trace {
				for _, name := range mustBeSet[w.Name] {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s is 0 on the workload that exercises it", w.Name, name)
					}
				}
				if _, err := os.Stat(o.tracePath()); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json identical
// to the table in spec.go and inside the limits the acceptance driver sets.
// With UPDATE_GOLDEN=1 (the repository's convention for regenerating pinned
// files from a test) it rewrites the file instead.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, specJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, specJSON()) {
		t.Error("BENCHMARK.json differs from spec.go: regenerate with `UPDATE_GOLDEN=1 go test -run TestSpecMatchesBenchmarkJSON` in bench/")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := pyQuartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	if got := spreadShare(xs); got != 1 {
		t.Errorf("spread %v, want 1", got)
	}
}

// TestSelfTimes pins the tracer's accounting: a span's self time is its
// duration minus what its children cover, well-nested lanes sum to their
// wall exactly, and overlapping siblings are caught.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) int64 { return int64(ms) * 1e6 }
	add := func(lane, name string, parent, from, to int) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Lane: lane, Name: name, Start: at(from), End: at(to)})
		return len(tr.spans)
	}
	root := add("a", "rep", 0, 0, 100)
	mid := add("a", "search", root, 10, 60)
	add("a", "coverage", mid, 20, 50)
	add("a", "bottom", root, 60, 70)
	if err := tr.checkLanes(); err != nil {
		t.Fatalf("well-nested lane rejected: %v", err)
	}
	got := tr.selfTimes()[0]
	want := map[string]int64{"rep": at(40), "search": at(20), "coverage": at(30), "bottom": at(10)}
	for name, ns := range want {
		if got.ByName[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, got.ByName[name], ns)
		}
	}
	if got.SelfNs != got.WallNs || got.WallNs != at(100) {
		t.Errorf("lane sums to %d over a wall of %d", got.SelfNs, got.WallNs)
	}
	add("a", "overlaps bottom", root, 65, 90)
	if err := tr.checkLanes(); err == nil {
		t.Error("overlapping siblings not caught")
	}
}
