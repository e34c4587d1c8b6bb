package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries the per-request trace ID. The gateway generates
// one when a client didn't supply it, forwards it to the backend it
// proxies to (and to mirror jobs), and both daemons echo it on the
// response and print it in their access logs — so one grep joins a
// request's hops across every process.
const TraceHeader = "X-Copydetect-Trace"

// NewTraceID returns a fresh 16-hex-digit trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in much deeper
		// trouble than tracing; a constant beats a panic mid-request.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// HTTPMetrics instruments an http.Handler: request counts by route,
// method and status code, latency histograms by route and status
// class, and an in-flight gauge by route. It also owns the access log
// and trace-ID handling that used to live in the daemons' logRequests
// wrappers.
type HTTPMetrics struct {
	requests *CounterVec   // route, method, code
	latency  *HistogramVec // route, class
	logger   *log.Logger   // nil disables access logging

	mu       sync.Mutex
	inflight map[string]*atomic.Int64 // route → requests being served
}

// NewHTTPMetrics registers the request-level families on reg under the
// given service prefix (for example "copydetectd" or "copygate") and
// returns the middleware. logger receives one access-log line per
// request; pass nil to disable logging (tests).
func NewHTTPMetrics(reg *Registry, service string, logger *log.Logger) *HTTPMetrics {
	m := &HTTPMetrics{
		requests: reg.CounterVec(service+"_http_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", "method", "code"),
		latency: reg.HistogramVec(service+"_http_request_duration_seconds",
			"HTTP request latency in seconds, by route and status class.",
			DefBuckets, "route", "class"),
		logger:   logger,
		inflight: make(map[string]*atomic.Int64),
	}
	reg.GaugeFunc(service+"_http_in_flight_requests",
		"HTTP requests currently being served, by route.",
		[]string{"route"}, func(emit func(float64, ...string)) {
			m.mu.Lock()
			routes := make([]string, 0, len(m.inflight))
			for route := range m.inflight {
				routes = append(routes, route)
			}
			m.mu.Unlock()
			sort.Strings(routes)
			for _, route := range routes {
				emit(float64(m.inFlight(route).Load()), route)
			}
		})
	return m
}

// inFlight returns the in-flight count of a route, which stays exported
// (at 0 when idle) from the first request on.
func (m *HTTPMetrics) inFlight(route string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.inflight[route]
	if n == nil {
		n = new(atomic.Int64)
		m.inflight[route] = n
	}
	return n
}

// Wrap returns next instrumented with metrics, trace IDs and access
// logging.
func (m *HTTPMetrics) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		trace := req.Header.Get(TraceHeader)
		if trace == "" {
			trace = NewTraceID()
			// Set it on the inbound headers too: the gateway's proxy
			// path copies client headers verbatim onto the backend
			// request, so this is what propagates the ID downstream.
			req.Header.Set(TraceHeader, trace)
		}
		w.Header().Set(TraceHeader, trace)

		route := NormalizeRoute(req.URL.Path)
		g := m.inFlight(route)
		g.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, req)
		elapsed := time.Since(start)
		g.Add(-1)

		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		m.requests.With(route, NormalizeMethod(req.Method), itoa(code)).Inc()
		m.latency.With(route, statusClass(code)).Observe(elapsed.Seconds())
		if m.logger != nil {
			m.logger.Printf("%s %s %d %dB %s trace=%s",
				req.Method, req.URL.Path, code, sw.bytes, elapsed.Round(time.Microsecond), trace)
		}
	})
}

// statusWriter records the status code and body size while forwarding
// writes. It preserves http.Flusher so streamed responses keep
// flushing through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// NormalizeRoute collapses dataset names out of request paths so the
// route label has bounded cardinality: /v1/datasets/<name>/<op> maps
// to /v1/datasets/{name}/<op> for known operations, unknown paths to
// "other".
func NormalizeRoute(path string) string {
	switch path {
	case "/healthz", "/metrics", "/v1/datasets":
		return path
	}
	rest, ok := strings.CutPrefix(path, "/v1/datasets/")
	if !ok || rest == "" {
		return "other"
	}
	name, op, hasOp := strings.Cut(rest, "/")
	if name == "" {
		return "other"
	}
	if !hasOp || op == "" {
		return "/v1/datasets/{name}"
	}
	switch op {
	case "observations", "copies", "truth", "stats", "quiesce", "export", "import":
		return "/v1/datasets/{name}/" + op
	}
	return "other"
}

// NormalizeMethod bounds the method label: the methods the services
// actually route stay distinct, anything else a client invents —
// methods are arbitrary client-controlled tokens — collapses to
// "other" instead of minting a new label child per probe string.
func NormalizeMethod(method string) string {
	switch method {
	case http.MethodGet, http.MethodPost, http.MethodPut,
		http.MethodDelete, http.MethodHead, http.MethodOptions:
		return method
	}
	return "other"
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

func itoa(code int) string {
	// Fast path for the handful of codes the services actually emit.
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 404:
		return "404"
	case 409:
		return "409"
	case 413:
		return "413"
	case 429:
		return "429"
	case 500:
		return "500"
	case 503:
		return "503"
	}
	b := [3]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)}
	return string(b[:])
}
