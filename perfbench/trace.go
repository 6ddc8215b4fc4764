package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was created; Parent is the index of the enclosing
// span (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return t.spans[i].dur()
}

// timed runs fn inside a span and returns its duration. On a nil tracer
// it still times fn, so traced and untraced code share one path.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	i := t.begin(name, parent, req)
	fn()
	return t.end(i)
}

// sum returns the total duration of the spans named name, and how many
// there are.
func (t *tracer) sum(name string) (time.Duration, int) {
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

// spansNamed returns a copy of the spans named name, in order.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// spanAt returns span i.
func (t *tracer) spanAt(i int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i]
}

// childSum returns, for every root span named root, the summed duration
// of its direct children, keyed by the root's index.
func (t *tracer) childSum(root string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.Name == root {
			out[i] += 0
		}
	}
	for _, s := range t.spans {
		if _, ok := out[s.Parent]; ok && s.Parent >= 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
