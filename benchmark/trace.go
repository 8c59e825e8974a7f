package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// driver around that call. Spans of one session share its number; parent is
// the id of the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent, session int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Session: session, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// selfTime is a span's duration minus the part its children cover — here the
// sum of the children's durations, since the driver's children never overlap
// each other (a replayed kernel is a child of the phase it models and runs
// after it, so only durations are comparable, not positions).
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[id-1].dur()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.dur()
		}
	}
	return self
}

// write stores the spans as JSON under dir, creating it.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
