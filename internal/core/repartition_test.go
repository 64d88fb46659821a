package core

import (
	"testing"

	"repro/internal/datasets"
)

func TestRepartitionStillCoversAll(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(4, 10)
	cfg.RepartitionEachEpoch = true
	met, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
}

func TestRepartitionCostsCommunication(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	base, err := Learn(kb, pos, neg, ms, testConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4, 10)
	cfg.RepartitionEachEpoch = true
	repart, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Repartitioning only pays off in message volume when several epochs
	// run; with a single epoch nothing is exchanged. In all cases it must
	// never reduce traffic.
	if repart.CommBytes < base.CommBytes {
		t.Fatalf("repartitioning decreased traffic: %d < %d", repart.CommBytes, base.CommBytes)
	}
	if repart.Epochs > 1 && repart.CommMessages <= base.CommMessages {
		t.Fatalf("multi-epoch repartition should add messages: %d vs %d", repart.CommMessages, base.CommMessages)
	}
}

func TestRepartitionDeterministic(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 5)
	cfg.RepartitionEachEpoch = true
	m1, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Theory) != len(m2.Theory) || m1.CommBytes != m2.CommBytes || m1.Epochs != m2.Epochs {
		t.Fatalf("nondeterministic repartition run: %+v vs %+v", m1, m2)
	}
	for i := range m1.Theory {
		if m1.Theory[i].String() != m2.Theory[i].String() {
			t.Fatalf("rule %d differs", i)
		}
	}
}

// TestRepartitionTheoriesPinned holds the §4.1 ablation to the theories it
// learned when per-epoch repartition had a path of its own (SHA-256 of the
// rules, one per line, generated at the commit before the redeal barrier
// took it over): the barrier deals the same pool with the same DealEven,
// so they must not move.
func TestRepartitionTheoriesPinned(t *testing.T) {
	for _, tc := range []struct {
		ds     *datasets.Dataset
		p      int
		epochs int
		sha    string
	}{
		{datasets.TrainsSkewed(200, 7, 0.25), 4, 2, "4542e0898cdf50a7aa1dfd9d5c1c4f317caf7c88865f7bd5c6cb8bad903fd02d"},
		{datasets.MeshSized(120, 24, 1), 3, 8, "0238988273bdcc765cffecfbd7bcc468e9a4e4141370eb25a2cb8201eb0e6b81"},
		{datasets.CarcinogenesisSized(24, 20, 1), 4, 3, "32a0e8e6f865aaf714013b62e64498a4bb1eda8376c67cd43120aa98deab81ff"},
	} {
		ds := tc.ds
		met, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{
			Workers: tc.p, Width: 10, Seed: 1,
			Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			RepartitionEachEpoch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := theorySHA(met.Theory); got != tc.sha || met.Epochs != tc.epochs {
			t.Errorf("%s p=%d: theory %s after %d epochs, pinned %s after %d", ds.Name, tc.p, got, met.Epochs, tc.sha, tc.epochs)
		}
		if met.Rebalances != met.Epochs-1 {
			t.Errorf("%s p=%d: %d redeals over %d epochs, want one per boundary", ds.Name, tc.p, met.Rebalances, met.Epochs)
		}
	}
}
