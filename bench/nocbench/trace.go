package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; Parent is 0 for a root span, whose Trace is its own ID.
type span struct {
	Trace  int64          `json:"trace"`
	Span   int64          `json:"span"`
	Parent int64          `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use by the replay workers.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// begin opens a span under parent, or a new trace when parent is nil.
func (t *tracer) begin(parent *span, name string) *span {
	return t.beginAt(parent, name, time.Now())
}

func (t *tracer) beginAt(parent *span, name string, at time.Time) *span {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	sp := &span{Trace: id, Span: id, Name: name, Start: t.since(at)}
	if parent != nil {
		sp.Trace, sp.Parent = parent.Trace, parent.Span
	}
	return sp
}

// end closes sp now and records it; attrs are alternating keys and values.
func (t *tracer) end(sp *span, attrs ...any) { t.endAt(sp, time.Now(), attrs...) }

func (t *tracer) endAt(sp *span, at time.Time, attrs ...any) {
	sp.End = t.since(at)
	if len(attrs) > 0 {
		sp.Attrs = make(map[string]any, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			sp.Attrs[attrs[i].(string)] = attrs[i+1]
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the daemon's
// server-side timestamps).
func (t *tracer) add(parent *span, name string, start, end time.Time, attrs ...any) {
	t.endAt(t.beginAt(parent, name, start), end, attrs...)
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if out[i].Start != out[k].Start {
			return out[i].Start < out[k].Start
		}
		return out[i].Span < out[k].Span
	})
	return out
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children of one parent may overlap (concurrent
// calls), so the covered part is the length of the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.Span]
		sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
		var covered, lo, hi int64
		open := false
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			switch {
			case b <= a:
			case !open:
				lo, hi, open = a, b, true
			case a > hi:
				covered += hi - lo
				lo, hi = a, b
			case b > hi:
				hi = b
			}
		}
		if open {
			covered += hi - lo
		}
		self[s.Span] = s.dur() - covered
	}
	return self
}

// checkSpans reports the first malformed span: an unknown parent, a child
// in another trace than its parent or outside its parent's interval, a
// negative duration, or a negative self time.
func checkSpans(spans []span) error {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].Span] = &spans[i]
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.Span, s.Name)
		}
		if self[s.Span] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", s.Span, s.Name)
		}
		if s.Parent == 0 {
			if s.Trace != s.Span {
				return fmt.Errorf("root span %d (%s) is in trace %d", s.Span, s.Name, s.Trace)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.Span, s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.Span, s.Name, s.Trace, p.Trace)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.Span, s.Name, s.Start, s.End, p.Span, p.Name, p.Start, p.End)
		}
	}
	return nil
}
