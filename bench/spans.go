package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one repetition
// or one request share Op; Parent is the ID of the span that caused this
// one (0 for a lane's root). Times are nanoseconds since the tracer began.
type span struct {
	ID     int
	Parent int
	Op     int
	Lane   string
	Name   string
	Start  int64
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so instrumented code paths can run untraced unchanged.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant into tracer time.
func (t *tracer) at(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.t0))
}

// add records a finished span and returns its ID.
func (t *tracer) add(lane, name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// open reserves a span whose end is not yet known (a lane root) and returns
// its ID for use as a parent; close stamps the end.
func (t *tracer) open(lane, name string, parent, op int, start time.Time) int {
	return t.add(lane, name, parent, op, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(end)
}

// laneSummary is a lane's wall time (the sum of its root spans) against the
// sum of every span's self time, broken down by span name.
type laneSummary struct {
	Lane   string
	WallNs int64
	SelfNs int64
	ByName map[string]int64
}

// selfTimes computes each span's self time — its duration minus the part of
// it its children cover — and sums it per lane. With well-nested spans the
// self times of a lane add up to the lane's wall time exactly; overlapping
// siblings or a child that outlives its parent make the sum exceed it,
// which is what checkLanes looks for.
func (t *tracer) selfTimes() []laneSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lanes := map[string]*laneSummary{}
	for _, s := range spans {
		ls := lanes[s.Lane]
		if ls == nil {
			ls = &laneSummary{Lane: s.Lane, ByName: map[string]int64{}}
			lanes[s.Lane] = ls
		}
		dur := s.End - s.Start
		if s.Parent == 0 {
			ls.WallNs += dur
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := dur - covered
		ls.SelfNs += self
		ls.ByName[s.Name] += self
	}
	out := make([]laneSummary, 0, len(lanes))
	for _, ls := range lanes {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lane < out[j].Lane })
	return out
}

// checkLanes asserts the traced run's accounting: per lane, self times sum
// to the lane's wall within 2 %.
func (t *tracer) checkLanes() error {
	for _, ls := range t.selfTimes() {
		if ls.WallNs <= 0 {
			return fmt.Errorf("trace lane %q has no root span", ls.Lane)
		}
		if off := math.Abs(float64(ls.SelfNs-ls.WallNs)) / float64(ls.WallNs); off > 0.02 {
			return fmt.Errorf("trace lane %q: self times sum to %.4fs but the lane ran %.4fs (off by %.1f%%)",
				ls.Lane, float64(ls.SelfNs)/1e9, float64(ls.WallNs)/1e9, 100*off)
		}
	}
	return nil
}

// writeChrome writes the spans in Chrome trace-event format (load it in
// chrome://tracing or ui.perfetto.dev): one thread per lane, complete
// ("X") events with microsecond timestamps, span identity in args.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	tids := map[string]int{}
	var laneNames []string
	for _, s := range spans {
		if _, ok := tids[s.Lane]; !ok {
			tids[s.Lane] = 0
			laneNames = append(laneNames, s.Lane)
		}
	}
	sort.Strings(laneNames)
	events := make([]event, 0, len(spans)+len(laneNames))
	for i, lane := range laneNames {
		tids[lane] = i + 1
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": lane}})
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tids[s.Lane],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "start_ns": s.Start, "end_ns": s.End},
		})
	}
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
