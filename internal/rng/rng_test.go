package rng

import (
	"reflect"
	"testing"

	"repro/internal/sched"
)

// TestOutputsPinned pins the generator's first outputs. Partitions, folds,
// generated datasets and fault schedules all draw from it, so any drift
// moves every table cell and every golden.
func TestOutputsPinned(t *testing.T) {
	cases := []struct {
		seed   int64
		uints  []uint64
		floats []float64
	}{
		{0, []uint64{0xd83b3e29a21487a, 0x54c44c79f1fe9d67, 0xa845f342007a0e78},
			[]float64{0.052790873358508184, 0.33112028100185353, 0.6573173557412489}},
		{1, []uint64{0x47e4ce4b896cdd1d, 0xabcfa6a8e079651d, 0xb9d10d8feb731f57},
			[]float64{0.28083505005035947, 0.6711372530266764, 0.7258461452833668}},
	}
	for _, c := range cases {
		r := New(c.seed)
		for i, want := range c.uints {
			if got := r.Uint64(); got != want {
				t.Errorf("New(%d) Uint64 #%d = %#x, want %#x", c.seed, i, got, want)
			}
		}
		r = New(c.seed)
		for i, want := range c.floats {
			if got := r.Float64(); got != want {
				t.Errorf("New(%d) Float64 #%d = %v, want %v", c.seed, i, got, want)
			}
		}
	}
}

// TestPermAndDealPinned pins the deal of Fig. 5 step 2 and of the k-fold
// split: the permutations and shares below are what the partitioner
// printed before every caller shared this generator.
func TestPermAndDealPinned(t *testing.T) {
	if got, want := New(1).Perm(10), []int{9, 0, 6, 4, 1, 2, 3, 7, 8, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("New(1).Perm(10) = %v, want %v", got, want)
	}
	if got, want := New(0).Perm(10), []int{3, 7, 2, 6, 1, 8, 4, 9, 5, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("New(0).Perm(10) = %v, want %v", got, want)
	}
	got := sched.DealEven(New(1).Perm(10), 3)
	if want := [][]int{{9, 4, 3, 5}, {0, 1, 7}, {6, 2, 8}}; !reflect.DeepEqual(got, want) {
		t.Errorf("DealEven(New(1).Perm(10), 3) = %v, want %v", got, want)
	}
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	want := []string{"j", "a", "g", "e", "b", "c", "d", "h", "i", "f"}
	if got := Shuffled(New(1), words); !reflect.DeepEqual(got, want) {
		t.Errorf("Shuffled(New(1), a..j) = %v, want %v", got, want)
	}
}

func TestPartitionEvenAndSeeded(t *testing.T) {
	parts := sched.DealEven(New(42).Perm(103), 8)
	total := 0
	for _, p := range parts {
		total += len(p)
		if len(p) < 103/8 || len(p) > 103/8+1 {
			t.Fatalf("unbalanced partition: %d", len(p))
		}
	}
	if total != 103 {
		t.Fatalf("lost examples: %d", total)
	}
	seen := make(map[int]bool)
	for _, p := range parts {
		for _, v := range p {
			if seen[v] {
				t.Fatalf("duplicate index %d", v)
			}
			seen[v] = true
		}
	}
	// Same seed → same partition.
	if again := sched.DealEven(New(42).Perm(103), 8); !reflect.DeepEqual(parts, again) {
		t.Fatal("partition not seed-deterministic")
	}
	// Different seed → (almost surely) different partition.
	if other := sched.DealEven(New(43).Perm(103), 8); reflect.DeepEqual(parts, other) {
		t.Fatal("different seeds produced identical partitions")
	}
}

func TestRngShuffleIsPermutation(t *testing.T) {
	xs := New(7).Perm(50)
	seen := make(map[int]bool)
	for _, v := range xs {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", xs)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("permutation of 50 has %d elements", len(seen))
	}
}
