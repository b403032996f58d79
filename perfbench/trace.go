package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary: a client request, or an
// in-process call into a layer's public function. Spans of one request
// share Req; Parent indexes the span that caused this one (-1: none).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    string        `json:"req,omitempty"`
}

// spanLog holds every span of a traced run in memory; it is written out
// once, when the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// tracer records spans into a shared log under its current parent. A
// nil *tracer records nothing, which is how untraced phases run.
type tracer struct {
	log    *spanLog
	parent int
}

func newTracer() *tracer { return &tracer{log: &spanLog{t0: time.Now()}, parent: -1} }

// fork returns a tracer on the same log with its own parent, for one
// goroutine.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{log: t.log, parent: -1}
}

func (t *tracer) setParent(id int) {
	if t != nil {
		t.parent = id
	}
}

func (t *tracer) begin(name, req string) int {
	if t == nil {
		return -1
	}
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t0), Parent: t.parent, Req: req})
	return len(l.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = time.Since(l.t0)
}

// call runs fn inside a span named name and returns its duration.
func (t *tracer) call(name string, fn func()) time.Duration {
	id := t.begin(name, "")
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// medianMs is the median duration, in milliseconds, of the spans named
// name; 0 when there are none.
func (t *tracer) medianMs(name string) float64 {
	if t == nil {
		return 0
	}
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	var xs []float64
	for _, s := range t.log.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return median(xs)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	for _, s := range t.log.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
