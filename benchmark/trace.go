package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Times are nanoseconds since the tracer started;
// Parent is the span that caused this one (0 = none) and Op ties the
// spans of one client operation together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int    `json:"op,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until write. A nil *tracer is tracing
// off: begin and end do nothing, and time still times.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the recorded spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span to its self time: its duration minus the
// part of its interval that child spans cover. Children may overlap
// each other (parallel calls) and are clipped to the parent's interval,
// so covered time is the length of the union, never a double count.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
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
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}
