// Package telemetry is the stdlib-only metrics layer behind the
// /metrics endpoints of copydetectd and copygate: a tiny registry of
// counters, gauges and histograms (with label dimensions) rendered in
// the Prometheus text exposition format, plus the HTTP middleware that
// feeds the request-level families and threads per-request trace IDs
// through access logs (http.go).
//
// Two ways to register a metric:
//
//   - Owned instruments (Counter/Histogram and their label Vecs) are
//     updated by the instrumented code path — atomics all the way, safe
//     for concurrent use, cheap enough for hot paths.
//   - Func collectors (CounterFunc/GaugeFunc) are evaluated at scrape
//     time and may emit any number of label combinations, which is how
//     state that already lives elsewhere — per-dataset convergence lag,
//     per-backend health, requests in flight — is exposed without
//     mirroring it into a second data structure. Every gauge is one.
//
// Exposition is deterministic: families appear in registration order,
// samples within a family in sorted label order, so golden tests can
// compare full scrapes byte-for-byte.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families of a registry.
type Kind int

// The three Prometheus metric kinds this registry supports.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// DefBuckets are the default latency histogram bounds, in seconds —
// the classic Prometheus ladder, wide enough for both sub-millisecond
// WAL appends and multi-second quiesce calls.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RoundBuckets suit detection-round durations, which reach far past
// request latencies on large datasets.
var RoundBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram counts observations into cumulative buckets, Prometheus
// style: bucket i counts observations <= upper[i], plus an implicit
// +Inf bucket; sum and count accompany them.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // one per upper bound; +Inf is count
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// family is one registered metric name: its metadata plus either owned
// children (one per label combination) or a scrape-time collector.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	buckets    []float64

	mu       sync.Mutex
	children map[string]any // key: label values joined by \xff
	collect  func(emit func(v float64, labelValues ...string))
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name or an invalid
// identifier — both are programmer errors that would silently corrupt
// the exposition otherwise.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CounterVec registers a counter family with label dimensions.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: KindCounter, labels: labels, children: make(map[string]any)}
	r.register(f)
	return &CounterVec{f: f}
}

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// HistogramVec registers a histogram family with label dimensions.
// A nil bucket slice selects DefBuckets; bounds must be sorted.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: metric %q: buckets not strictly increasing", name))
		}
	}
	f := &family{name: name, help: help, kind: KindHistogram, labels: labels, buckets: buckets, children: make(map[string]any)}
	r.register(f)
	return &HistogramVec{f: f}
}

// Histogram registers and returns an unlabelled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// GaugeFunc registers a gauge family whose samples are produced at
// scrape time: collect is called with an emit function and may emit any
// number of samples, each with exactly len(labels) label values. This
// is how dynamic label sets (datasets, backends) are exposed without
// mirroring their state.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(emit func(v float64, labelValues ...string))) {
	r.register(&family{name: name, help: help, kind: KindGauge, labels: labels, collect: collect})
}

// CounterFunc is GaugeFunc for a monotone count kept elsewhere (for
// example an atomic the hot path increments without telemetry in the
// loop).
func (r *Registry) CounterFunc(name, help string, labels []string, collect func(emit func(v float64, labelValues ...string))) {
	r.register(&family{name: name, help: help, kind: KindCounter, labels: labels, collect: collect})
}

const keySep = "\xff"

// child returns (creating if needed) the family's instrument for the
// given label values.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q: got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, keySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.kind {
	case KindCounter:
		c = &Counter{}
	default:
		h := &Histogram{upper: f.buckets}
		h.buckets = make([]atomic.Uint64, len(f.buckets))
		c = h
	}
	f.children[key] = c
	return c
}

// CounterVec is a counter family; With selects one label combination.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// HistogramVec is a histogram family; With selects one label
// combination.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if f.collect != nil {
			f.writeCollected(&b)
		} else {
			f.writeChildren(&b)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeCollected renders a func family: samples in emission order.
func (f *family) writeCollected(b *strings.Builder) {
	f.collect(func(v float64, labelValues ...string) {
		if len(labelValues) != len(f.labels) {
			panic(fmt.Sprintf("telemetry: metric %q: collector emitted %d label values, want %d", f.name, len(labelValues), len(f.labels)))
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, labelValues, "", ""), formatFloat(v))
	})
}

// writeChildren renders owned instruments, sorted by label values.
func (f *family) writeChildren(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make(map[string]any, len(f.children))
	for k, c := range f.children {
		children[k] = c
	}
	f.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, keySep)
		}
		switch c := children[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), c.Value())
		case *Histogram:
			cum := uint64(0)
			for i, ub := range c.upper {
				cum += c.buckets[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", formatFloat(ub)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", "+Inf"), c.count.Load())
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(math.Float64frombits(c.sumBits.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), c.count.Load())
		}
	}
}

// labelString renders {a="x",b="y"} (plus an optional extra pair, used
// for histogram le bounds), or the empty string with no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The status line is on the wire first; a mid-scrape write error
		// is a dropped scraper with no remaining recourse.
		_ = r.WritePrometheus(w)
	})
}
