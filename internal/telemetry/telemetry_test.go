package telemetry

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestExpositionGolden(t *testing.T) {
	reg := New()
	c := reg.Counter("test_requests_total", "Requests handled.")
	c.Add(41)
	c.Inc()
	cv := reg.CounterVec("test_errors_total", "Errors, by kind.", "kind")
	cv.With("io").Add(3)
	cv.With("decode").Inc()
	reg.GaugeFunc("test_queue_depth", "Jobs queued.", nil, func(emit func(float64, ...string)) { emit(5) })
	h := reg.HistogramVec("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "route")
	h.With("/a").Observe(0.005)
	h.With("/a").Observe(0.05)
	h.With("/a").Observe(5)
	reg.GaugeFunc("test_dyn_lag", "Dynamic lag.", []string{"ds"}, func(emit func(float64, ...string)) {
		emit(12, "alpha")
		emit(0.5, "with\"quote")
	})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 42
# HELP test_errors_total Errors, by kind.
# TYPE test_errors_total counter
test_errors_total{kind="decode"} 1
test_errors_total{kind="io"} 3
# HELP test_queue_depth Jobs queued.
# TYPE test_queue_depth gauge
test_queue_depth 5
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{route="/a",le="0.01"} 1
test_latency_seconds_bucket{route="/a",le="0.1"} 2
test_latency_seconds_bucket{route="/a",le="1"} 2
test_latency_seconds_bucket{route="/a",le="+Inf"} 3
test_latency_seconds_sum{route="/a"} 5.055
test_latency_seconds_count{route="/a"} 3
# HELP test_dyn_lag Dynamic lag.
# TYPE test_dyn_lag gauge
test_dyn_lag{ds="alpha"} 12
test_dyn_lag{ds="with\"quote"} 0.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	reg := New()
	c := reg.Counter("c_total", "c")
	var g atomic.Int64
	reg.GaugeFunc("g", "g", nil, func(emit func(float64, ...string)) { emit(float64(g.Load())) })
	h := reg.Histogram("h_seconds", "h", nil)
	cv := reg.CounterVec("cv_total", "cv", "k")
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w%3)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) / 1000)
				cv.With(key).Inc()
				if i%100 == 0 {
					// Scrape concurrently with updates.
					_ = reg.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil || !strings.Contains(b.String(), "\ng 0\n") {
		t.Errorf("gauge exposition (err %v):\n%s\nwant the line g 0", err, b.String())
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	var sum uint64
	for i := 0; i < 3; i++ {
		sum += cv.With(fmt.Sprintf("k%d", i)).Value()
	}
	if sum != workers*iters {
		t.Errorf("labelled counters sum = %d, want %d", sum, workers*iters)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := New()
	reg.Counter("dup_total", "x")
	mustPanic("duplicate", func() { reg.Counter("dup_total", "x") })
	mustPanic("bad name", func() { reg.Counter("bad-name", "x") })
	mustPanic("bad label", func() { reg.CounterVec("ok_total", "x", "bad-label") })
	mustPanic("bad buckets", func() { reg.Histogram("h_seconds", "x", []float64{1, 1}) })
	cv := reg.CounterVec("lv_total", "x", "a", "b")
	mustPanic("label arity", func() { cv.With("only-one") })
}

func TestHandlerAndParse(t *testing.T) {
	reg := New()
	reg.Counter("parse_total", "p").Add(3)
	reg.Histogram("parse_seconds", "p", nil).Observe(0.2)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	lines, err := ParseLines(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no samples parsed")
	}

	resp2, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp2.StatusCode)
	}
}

func TestMiddleware(t *testing.T) {
	reg := New()
	var logBuf strings.Builder
	m := NewHTTPMetrics(reg, "svc", log.New(&logBuf, "", 0))
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/datasets/alpha/observations":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, "ok")
		case "/v1/datasets/alpha/copies":
			if _, ok := w.(http.Flusher); !ok {
				t.Error("middleware dropped http.Flusher")
			}
			fmt.Fprint(w, "body") // implicit 200
		default:
			http.NotFound(w, req)
		}
	})
	srv := httptest.NewServer(m.Wrap(inner))
	defer srv.Close()

	// Request without a trace ID: one is generated and echoed.
	resp, err := http.Post(srv.URL+"/v1/datasets/alpha/observations", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	trace := resp.Header.Get(TraceHeader)
	if len(trace) != 16 {
		t.Errorf("generated trace = %q, want 16 hex chars", trace)
	}

	// Request with a caller-supplied trace ID: echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/datasets/alpha/copies", nil)
	req.Header.Set(TraceHeader, "deadbeefdeadbeef")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(TraceHeader); got != "deadbeefdeadbeef" {
		t.Errorf("echoed trace = %q", got)
	}

	if got := m.requests.With("/v1/datasets/{name}/observations", http.MethodPost, "202").Value(); got != 1 {
		t.Errorf("requests_total{observations,POST,202} = %d, want 1", got)
	}
	if got := m.requests.With("/v1/datasets/{name}/copies", http.MethodGet, "200").Value(); got != 1 {
		t.Errorf("requests_total{copies,GET,200} = %d, want 1", got)
	}
	if got := m.latency.With("/v1/datasets/{name}/observations", "2xx").Count(); got != 1 {
		t.Errorf("latency count = %d, want 1", got)
	}
	// Requests and scrapes at once; every request has left afterwards.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.Wrap(inner).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/datasets/alpha/copies", nil))
				_ = reg.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if want := `svc_http_in_flight_requests{route="/v1/datasets/{name}/copies"} 0
svc_http_in_flight_requests{route="/v1/datasets/{name}/observations"} 0
`; !strings.Contains(scrape.String(), want) {
		t.Errorf("in-flight exposition:\n%s\nwant\n%s", scrape.String(), want)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, " 202 2B ") || !strings.Contains(logs, "trace="+trace) {
		t.Errorf("access log missing status/bytes/trace:\n%s", logs)
	}
	if !strings.Contains(logs, " 200 4B ") || !strings.Contains(logs, "trace=deadbeefdeadbeef") {
		t.Errorf("access log missing second request:\n%s", logs)
	}
}

func TestNormalizeRoute(t *testing.T) {
	cases := map[string]string{
		"/healthz":                        "/healthz",
		"/metrics":                        "/metrics",
		"/v1/datasets":                    "/v1/datasets",
		"/v1/datasets/alpha":              "/v1/datasets/{name}",
		"/v1/datasets/alpha/observations": "/v1/datasets/{name}/observations",
		"/v1/datasets/alpha/copies":       "/v1/datasets/{name}/copies",
		"/v1/datasets/a-b.c/quiesce":      "/v1/datasets/{name}/quiesce",
		"/v1/datasets/alpha/export":       "/v1/datasets/{name}/export",
		"/v1/datasets/alpha/bogus":        "other",
		"/v1/datasets/":                   "other",
		"/":                               "other",
		"/favicon.ico":                    "other",
	}
	for path, want := range cases {
		if got := NormalizeRoute(path); got != want {
			t.Errorf("NormalizeRoute(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestNormalizeMethod(t *testing.T) {
	cases := map[string]string{
		"GET":       "GET",
		"POST":      "POST",
		"PUT":       "PUT",
		"DELETE":    "DELETE",
		"HEAD":      "HEAD",
		"OPTIONS":   "OPTIONS",
		"PATCH":     "other", // not routed by either daemon
		"get":       "other", // methods are case-sensitive tokens
		"EVILPROBE": "other",
		"":          "other",
	}
	for method, want := range cases {
		if got := NormalizeMethod(method); got != want {
			t.Errorf("NormalizeMethod(%q) = %q, want %q", method, got, want)
		}
	}
}

func TestStatusClassAndItoa(t *testing.T) {
	for code, want := range map[int]string{102: "1xx", 200: "2xx", 301: "3xx", 404: "4xx", 500: "5xx"} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
	for _, code := range []int{200, 202, 204, 301, 404, 409, 413, 418, 429, 500, 503} {
		if got, want := itoa(code), fmt.Sprint(code); got != want {
			t.Errorf("itoa(%d) = %q, want %q", code, got, want)
		}
	}
}

// ParseLines is exercised here against a live scrape in
// TestHandlerAndParse; this covers its error paths.
func TestParseLinesErrors(t *testing.T) {
	if _, err := ParseLines(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("expected error for sample without value")
	}
	if _, err := ParseLines(strings.NewReader("x{unclosed=\"v\" 1\n")); err == nil {
		t.Error("expected error for unclosed label braces")
	}
	if _, err := ParseLines(strings.NewReader("x 1\ny notanumber\n")); err == nil {
		t.Error("expected error for non-numeric value")
	}
	samples, err := ParseLines(strings.NewReader(
		"# HELP x y\nx{a=\"v\\\"q\",b=\"w\"} 2\nh_bucket{le=\"+Inf\"} 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].Labels["a"] != `v"q` || samples[1].Value != 7 {
		t.Errorf("parsed samples = %+v", samples)
	}
}
