package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public entry points. Parent is the id of the span that caused it
// (0 for a root); spans of one operation share their root's Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run; write dumps them when the
// run ends. Safe for concurrent use. A nil tracer records nothing: timed
// only runs fn, so untraced code takes the same path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timed runs fn inside a span named name under parent, and returns the span's
// id and duration.
func (t *tracer) timed(op, name string, parent int, fn func()) (int, time.Duration) {
	if t == nil {
		fn()
		return 0, 0
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return id, end - start
}

// reserve allocates an id for a span whose children are recorded before it
// ends; finish records it.
func (t *tracer) reserve() (int, time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans), time.Since(t.t0)
}

func (t *tracer) finish(id int, op, name string, parent int, start time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1] = span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(end)}
	t.mu.Unlock()
}

// total sums the durations of every span called name; count counts them.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// meanOf is total(name) / count in the given unit (0 when no span ran).
func (t *tracer) meanOf(name string, unit time.Duration) float64 {
	d, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

// leafTotal sums the durations of spans no other span names as parent: the
// time spent inside the program's layers, without double counting a span
// that only groups others.
func (t *tracer) leafTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[int]bool{}
	for _, s := range t.spans {
		parents[s.Parent] = true
	}
	var d time.Duration
	for _, s := range t.spans {
		if !parents[s.ID] {
			d += s.dur()
		}
	}
	return d
}

// write dumps the spans as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// dumpSpans writes the traced run's spans under the output directory and
// notes where.
func dumpSpans(rep *report, t *tracer, o options) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := t.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}
