package core

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mode"
	"repro/internal/search"
)

// Failure injection: protocol violations must surface as errors from the
// worker loop and not hang the run.

func TestWorkerRejectsUnknownMessageKind(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	nw := cluster.NewNetwork(2, cluster.CostModel{})
	w := newWorker(1, 1, nw.Node(1), kb, search.NewExamples(pos[:4], neg[:4]), ms, Config{Workers: 1}.withDefaults())
	if err := nw.Node(0).Send(1, 999, junk{}); err != nil {
		t.Fatal(err)
	}
	err := w.run()
	if err == nil || !strings.Contains(err.Error(), "unknown message kind") {
		t.Fatalf("worker error = %v, want unknown-kind error", err)
	}
}

func TestWorkerRejectsMalformedPayload(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	nw := cluster.NewNetwork(2, cluster.CostModel{})
	w := newWorker(1, 1, nw.Node(1), kb, search.NewExamples(pos[:4], neg[:4]), ms, Config{Workers: 1}.withDefaults())
	// A stage message whose payload is not a stage message at all.
	if err := nw.Node(0).Send(1, kindStage, junk("not a stage message")); err != nil {
		t.Fatal(err)
	}
	if err := w.run(); err == nil {
		t.Fatal("malformed payload accepted")
	}
}

func TestWorkerExitsCleanlyOnShutdown(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	nw := cluster.NewNetwork(2, cluster.CostModel{})
	w := newWorker(1, 1, nw.Node(1), kb, search.NewExamples(pos[:4], neg[:4]), ms, Config{Workers: 1}.withDefaults())
	done := make(chan error, 1)
	go func() { done <- w.run() }()
	nw.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("shutdown produced error: %v", err)
	}
}

func TestMasterErrorReleasesWorkers(t *testing.T) {
	// A master that dies mid-protocol must not leave worker goroutines
	// stuck: Learn returns an error and all goroutines exit. Simulate by
	// feeding the master an out-of-protocol message through a rogue
	// config: easiest is Workers with no positive examples on any side —
	// covered by validation — so instead inject via an impossible mode
	// set that makes saturation fail on every worker.
	kb, pos, neg, _ := makeTask(t)
	badModes := mustBadModes(t)
	_, err := Learn(kb, pos, neg, badModes, testConfig(2, 5))
	if err == nil {
		t.Fatal("expected error from failing saturation")
	}
}

func mustBadModes(t *testing.T) *mode.Set {
	t.Helper()
	// A head mode whose predicate does not match the examples: every
	// start_pipeline errors during saturation.
	ms, err := mode.ParseSet(`
		modeh(1, wrong_pred(+mol)).
		modeb(1, atm(+mol, -atomid, #element)).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}
