package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one op share
// Op; Parent is the index of the enclosing span, or -1 for an op's root.
type Span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"startMs"` // since the tracer was created
	End    float64 `json:"endMs"`
	Self   float64 `json:"selfMs"` // duration minus the time children cover
}

// Tracer keeps spans and per-layer counts in memory until the run ends. A
// nil *Tracer is the untraced mode: every method is a no-op, so the timed
// code paths are the same in both modes.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	counts map[string][]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), counts: make(map[string][]float64)}
}

func (t *Tracer) since() float64 {
	return float64(time.Since(t.t0)) / float64(time.Millisecond)
}

// Begin opens a span and returns its index (-1 when untraced).
func (t *Tracer) Begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Start: t.since()})
	return len(t.spans) - 1
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.since()
}

// Add opens a span with explicit bounds, for intervals measured elsewhere
// (e.g. on another goroutine) and recorded afterwards.
func (t *Tracer) Add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := func(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Millisecond) }
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Start: ms(start), End: ms(end)})
	return len(t.spans) - 1
}

// Count records one observation of a per-layer count or ratio at the
// boundary where it is produced.
func (t *Tracer) Count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// finish computes every span's self time: its duration minus the union of
// the intervals its direct children cover.
func (t *Tracer) finish() {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k[0], reach), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// Durations returns the durations (ms) of every span with the name.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// Counts returns the observations recorded under the name.
func (t *Tracer) Counts(name string) []float64 { return t.counts[name] }

// traceFile is the document written when a traced run ends.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Spans    []Span               `json:"spans"`
	Counts   map[string][]float64 `json:"counts"`
}

// write computes self times and writes the spans and counts as JSON.
func (t *Tracer) write(path, workload string, seed uint64) error {
	t.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, Counts: t.counts})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
