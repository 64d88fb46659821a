package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/solve"
)

// keepArtifacts bounds how many inactive artifacts the registry retains
// after an activation: each loaded artifact holds a compiled KB and a
// machine pool, and a long learning run publishes one snapshot per epoch.
const keepArtifacts = 8

// Artifact is a snapshot compiled for serving: the indexed KB, the rule
// strings, the /classify response plan, and a private machine pool.
// Artifacts are immutable once built — hot-swap replaces the whole artifact
// pointer, and requests that already hold the old one finish on it
// undisturbed, so every response is internally consistent with exactly one
// snapshot version.
type Artifact struct {
	// ID is the registry-unique version name, "v<seq>".
	ID string
	// Seq is the snapshot sequence (the learning master's publish counter).
	Seq uint64
	// Snap is the loaded snapshot (terms already re-interned).
	Snap *Snapshot
	// Rules caches the canonical string of each theory rule, index-aligned
	// with Snap.Theory.
	Rules []string

	kb   *solve.KB
	pool *solve.Pool
	plan responsePlan
}

// Compile builds the serving artifact for a snapshot: index the KB once,
// build a pool of machines machines over it, and precompute the constant
// bytes of its /classify responses. machines ≤ 0 selects GOMAXPROCS.
func Compile(s *Snapshot, seq uint64, machines int) *Artifact {
	kb := s.KB()
	a := &Artifact{
		ID:    fmt.Sprintf("v%d", seq),
		Seq:   seq,
		Snap:  s,
		Rules: make([]string, len(s.Theory)),
		kb:    kb,
		pool:  solve.NewPool(kb, s.Budget, machines),
	}
	for i := range s.Theory {
		a.Rules[i] = s.Theory[i].String()
	}
	a.plan = compilePlan(a)
	return a
}

// Pool returns the artifact's machine pool.
func (a *Artifact) Pool() *solve.Pool { return a.pool }

// KB returns the artifact's compiled knowledge base.
func (a *Artifact) KB() *solve.KB { return a.kb }

// Registry holds the loaded artifacts and the active one. Activation is an
// atomic pointer swap: requests read the pointer once and keep that
// artifact for their whole lifetime, so a swap never strands or mixes an
// in-flight request.
type Registry struct {
	machines int

	mu   sync.Mutex // guards arts and activation ordering
	arts map[string]*Artifact

	active atomic.Pointer[Artifact]
}

// NewRegistry returns an empty registry whose artifacts get pools of
// machines machines (≤0: GOMAXPROCS).
func NewRegistry(machines int) *Registry {
	return &Registry{machines: machines, arts: make(map[string]*Artifact)}
}

// Add compiles and registers a snapshot under sequence seq, returning the
// artifact (or the already-registered one of the same ID).
func (r *Registry) Add(s *Snapshot, seq uint64) *Artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fmt.Sprintf("v%d", seq)
	if a, ok := r.arts[id]; ok {
		return a
	}
	a := Compile(s, seq, r.machines)
	r.arts[a.ID] = a
	return a
}

// LoadFile reads, compiles and registers one snapshot file.
func (r *Registry) LoadFile(f SnapshotFile) (*Artifact, error) {
	s, err := ReadSnapshot(f.Path)
	if err != nil {
		return nil, err
	}
	return r.Add(s, f.Seq), nil
}

// Activate makes the artifact with the given ID the serving version.
func (r *Registry) Activate(id string) (*Artifact, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.arts[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown snapshot %q", id)
	}
	r.active.Store(a)
	r.pruneLocked()
	return a, nil
}

// Active returns the serving artifact, or nil before the first activation.
func (r *Registry) Active() *Artifact { return r.active.Load() }

// List returns the registered artifacts in ascending sequence order.
func (r *Registry) List() []*Artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Artifact, 0, len(r.arts))
	for _, a := range r.arts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// pruneLocked drops the lowest-sequence inactive artifacts beyond
// keepArtifacts. In-flight requests holding a dropped artifact finish
// normally — dropping only forgets the registry's reference.
func (r *Registry) pruneLocked() {
	if len(r.arts) <= keepArtifacts {
		return
	}
	act := r.active.Load()
	var all []*Artifact
	for _, a := range r.arts {
		all = append(all, a)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	excess := len(all) - keepArtifacts
	for _, a := range all {
		if excess == 0 {
			break
		}
		if act != nil && a.ID == act.ID {
			continue
		}
		delete(r.arts, a.ID)
		excess--
	}
}

// Watch polls dir for snapshot files until ctx is done, loading unseen
// sequences and activating the newest — the serving half of a live
// `-publish` learning run. Files that fail to load (e.g. a sequence torn by
// a dying writer; the atomic write protocol makes that unlikely) are
// skipped and retried on the next poll. onSwap, when non-nil, observes
// every activation.
func (r *Registry) Watch(ctx context.Context, dir string, every time.Duration, onSwap func(*Artifact)) error {
	if every <= 0 {
		every = 200 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		if err := r.pollDir(dir, onSwap); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// pollDir is one Watch scan: load news, activate the newest.
func (r *Registry) pollDir(dir string, onSwap func(*Artifact)) error {
	files, err := ListSnapshotFiles(dir)
	if err != nil {
		return err
	}
	act := r.Active()
	var newest *Artifact
	for _, f := range files {
		if act != nil && f.Seq <= act.Seq {
			continue
		}
		r.mu.Lock()
		_, loaded := r.arts[fmt.Sprintf("v%d", f.Seq)]
		r.mu.Unlock()
		if loaded {
			continue
		}
		a, err := r.LoadFile(f)
		if err != nil {
			continue // torn or in-flight write: retry next poll
		}
		if newest == nil || a.Seq > newest.Seq {
			newest = a
		}
	}
	if newest != nil && (act == nil || newest.Seq > act.Seq) {
		if _, err := r.Activate(newest.ID); err == nil && onSwap != nil {
			onSwap(newest)
		}
	}
	return nil
}
