package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is 0 for a root; every span of one
// request carries the request's Req id.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps finished spans in memory until the run writes them out.
// A nil *tracer records nothing, so untraced code paths pay one nil test.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	reqs   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// request returns a fresh request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// start opens a span; the caller passes it to end.
func (t *tracer) start(name string, parent span, req int64) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, ID: t.ids.Add(1), Parent: parent.ID, Req: req, Start: int64(time.Since(t.origin))}
}

// end closes s and records it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap runs f inside a span named name.
func (t *tracer) wrap(name string, parent span, req int64, f func()) {
	s := t.start(name, parent, req)
	f()
	t.end(s)
}

// finished returns a copy of the spans recorded so far.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval covered by its children. Overlapping children
// (concurrent calls) count once; a child sticking out of its parent is
// clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.End, s.End))
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// byName groups a measure of each span (in ms) by span name.
func byName(spans []span, measure func(span) int64) map[string]timing {
	out := map[string]timing{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(measure(s))/1e6)
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
