package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Span is its index in the
// trace, Parent the index of the span that caused it (-1 for a root), ID the
// operation it belongs to: all spans of one operation share an ID. Count is
// the work the interval covered (cycles, points, requests).
type span struct {
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

// tracer keeps spans in memory and writes them out when the workload ends.
// A nil tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Span: len(t.spans), Parent: parent, ID: op, Name: name, Layer: layer, StartNS: now, EndNS: now})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(idx int, count int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[idx].EndNS = now
	t.spans[idx].Count = count
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the per-phase
// children synthesised from a batch's PhaseNanos delta).
func (t *tracer) add(op int64, parent int, layer, name string, startNS, durNS, count int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Span: len(t.spans), Parent: parent, ID: op, Name: name, Layer: layer, StartNS: startNS, EndNS: startNS + durNS, Count: count})
	return len(t.spans) - 1
}

// since converts a wall-clock instant to the trace's time base.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.t0).Nanoseconds()
}

// selfTimes returns each layer's self time in nanoseconds: every span's
// duration minus the part of it that its child spans cover (children may
// overlap one another when clients run in parallel, so their union counts).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Layer] += s.EndNS - s.StartNS - covered(children[s.Span], s.StartNS, s.EndNS)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	at := lo
	for _, x := range iv {
		a, b := max(x[0], at), min(x[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// write stores the trace as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
