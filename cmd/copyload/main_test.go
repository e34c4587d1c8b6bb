package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/scenario"
	"copydetect/internal/server"
)

// runJSON runs copyload with -json appended and decodes the verdict.
func runJSON(t *testing.T, wantCode int, args ...string) (*scenario.Verdict, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-json"), &stdout, &stderr); code != wantCode {
		t.Fatalf("run exited %d, want %d; stderr:\n%s", code, wantCode, stderr.String())
	}
	var v scenario.Verdict
	if err := json.Unmarshal(stdout.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON verdict %q: %v", stdout.String(), err)
	}
	if len(v.Phases) != 1 || v.Phases[0].Name != "load" {
		t.Fatalf("phases = %+v, want the single load phase", v.Phases)
	}
	return &v, stdout.String()
}

func textSummary(v *scenario.Verdict) string {
	var text bytes.Buffer
	printVerdict(&text, v)
	return text.String()
}

func TestParseFlags(t *testing.T) {
	opt, err := parseFlags([]string{"-target", "http://x:1"})
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if opt.datasets != 4 || opt.clients != 4 || opt.batch != 500 || opt.rate != 0 ||
		opt.jsonOut || opt.preset != "book-cs" || opt.scale != 0.05 || opt.seed != 1 {
		t.Fatalf("defaults = %+v", opt)
	}

	opt, err = parseFlags([]string{
		"-target", "http://x:1", "-datasets", "8", "-clients", "2",
		"-dataset", "stock-1day", "-scale", "0.2", "-seed", "7",
		"-batch", "100", "-rate", "50", "-json",
	})
	if err != nil {
		t.Fatalf("full flags: %v", err)
	}
	if opt.datasets != 8 || opt.clients != 2 || opt.preset != "stock-1day" ||
		opt.scale != 0.2 || opt.seed != 7 || opt.batch != 100 || opt.rate != 50 ||
		!opt.jsonOut {
		t.Fatalf("full flags = %+v", opt)
	}

	for _, bad := range [][]string{
		nil, // no target
		{"-target", "http://x:1", "-datasets", "0"},
		{"-target", "http://x:1", "-clients", "0"},
		{"-target", "http://x:1", "-batch", "0"},
		{"-target", "http://x:1", "-rate", "-1"},
		{"-target", "http://x:1", "-rate", "2000000000"}, // would zero the pacer interval
		{"-target", "http://x:1", "-dataset", "nope"},
		{"-target", "http://x:1", "-prefix", ""},
		{"-nonsense"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted invalid input", bad)
		}
	}
}

// TestZeroSuccessfulAppendsOmitsLatency is the regression test for the
// empty-sample report: a run where every append fails must exit
// nonzero with valid JSON and the appendLatency block omitted — not a
// zero-filled (or NaN-filled) latency summary measured over failures.
func TestZeroSuccessfulAppendsOmitsLatency(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	inner := server.NewHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/observations") {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error":"injected append failure"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	v, raw := runJSON(t, 1, "-target", srv.URL, "-datasets", "1", "-clients", "1",
		"-scale", "0.02", "-batch", "100")
	if strings.Contains(raw, "appendLatency") {
		t.Errorf("zero-success verdict still carries appendLatency: %s", raw)
	}
	if p := v.Phases[0]; p.Appends != 0 || p.Errors5xx == 0 || p.OtherErrors != 1 || p.Latency != nil {
		t.Errorf("phase = %+v, want zero appends, counted 5xx, one abandoned stream, nil latency", p)
	}
	// The text renderer handles the empty sample too.
	if text := textSummary(v); !strings.Contains(text, "no successful appends") {
		t.Errorf("text summary does not flag the empty sample:\n%s", text)
	}
}

// TestFailedAppendLatenciesExcluded: failures must not pollute the
// latency sample of the successful appends.
func TestFailedAppendLatenciesExcluded(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	inner := server.NewHandler(reg)
	var obsCalls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/observations") {
			if atomic.AddInt32(&obsCalls, 1) > 1 {
				// Every append after the first fails slowly: its duration
				// must not appear in the latency percentiles.
				time.Sleep(150 * time.Millisecond)
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintln(w, `{"error":"slow failure"}`)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	v, _ := runJSON(t, 1, "-target", srv.URL, "-datasets", "1", "-clients", "1",
		"-scale", "0.02", "-batch", "50")
	p := v.Phases[0]
	if p.Appends != 1 || p.Errors5xx == 0 || p.OtherErrors != 1 || p.Latency == nil {
		t.Fatalf("phase = %+v, want 1 success, counted 5xx, one abandoned stream, a latency summary", p)
	}
	if p.Latency.MaxMillis >= 150 {
		t.Errorf("failed append's 150ms latency leaked into the sample: %+v", p.Latency)
	}
}

// TestQuiesceFailureStillReports: a backend dying before convergence
// must not discard the measured run — the report (with the error
// counted) is most valuable exactly then. The run still exits nonzero.
func TestQuiesceFailureStillReports(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	inner := server.NewHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/quiesce") {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"backend gone"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	v, _ := runJSON(t, 1, "-target", srv.URL, "-datasets", "1", "-clients", "1",
		"-scale", "0.02", "-batch", "100")
	if v.Phases[0].Appends == 0 || v.QuiesceErrors != 1 || v.Pass {
		t.Fatalf("verdict = %+v, want measured appends, the quiesce error counted and a failed verdict", v)
	}
}

// TestThrottledAppendsRetry: 429 is backpressure, not failure. Every
// odd append attempt is refused with Retry-After; the run must retry
// each refused batch in place, land every observation exactly once,
// tally the refusals as throttled (not errors) and exit clean.
func TestThrottledAppendsRetry(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	inner := server.NewHandler(reg)
	var obsCalls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/observations") && atomic.AddInt32(&obsCalls, 1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"mirror queue over the high-water mark"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	v, raw := runJSON(t, 0, "-target", srv.URL, "-datasets", "2", "-clients", "2",
		"-scale", "0.02", "-batch", "100")
	p := v.Phases[0]
	if p.Errors5xx != 0 || p.OtherErrors != 0 {
		t.Errorf("throttled batches counted as errors: %+v", p)
	}
	if p.Throttled == 0 || p.Throttled != p.Appends {
		t.Errorf("throttled = %d, appends = %d; every batch was refused exactly once", p.Throttled, p.Appends)
	}
	if !strings.Contains(raw, `"throttled"`) {
		t.Errorf("JSON verdict has no throttled field: %s", raw)
	}
	// Every observation landed exactly once despite the refusals.
	total := 0
	for _, name := range reg.List() {
		m, ok := reg.Get(name)
		if !ok {
			t.Fatalf("dataset %s missing", name)
		}
		total += int(m.Info().Version)
	}
	if total != p.Appends || p.Observations != v.Observations {
		t.Errorf("server holds %d appends, verdict claims %d (%d of %d observations)",
			total, p.Appends, p.Observations, v.Observations)
	}
	if text := textSummary(v); !strings.Contains(text, "throttled") {
		t.Errorf("text summary does not mention throttling:\n%s", text)
	}
}

// TestRunAgainstDaemon streams a small workload into an in-process
// daemon and checks the verdict: every batch acknowledged, no errors,
// convergence reached, detection scored.
func TestRunAgainstDaemon(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	srv := httptest.NewServer(server.NewHandler(reg))
	defer srv.Close()

	v, _ := runJSON(t, 0, "-target", srv.URL, "-datasets", "3", "-clients", "2",
		"-scale", "0.02", "-batch", "200")
	p := v.Phases[0]
	if !v.Pass || p.Appends == 0 || p.Errors5xx != 0 || p.OtherErrors != 0 || p.Starved {
		t.Fatalf("verdict = %+v", v)
	}
	// Everything the generator produced must have been appended.
	if v.Datasets != 3 || v.Observations == 0 || p.Observations != v.Observations {
		t.Fatalf("streamed %d of %d observations over %d datasets", p.Observations, v.Observations, v.Datasets)
	}
	if p.Latency == nil || p.Latency.MaxMillis <= 0 || v.WallSeconds <= 0 || v.QuiesceSeconds <= 0 || v.Quality == nil {
		t.Fatalf("missing measurements: %+v", v)
	}
	for _, name := range reg.List() {
		m, ok := reg.Get(name)
		if !ok || !m.Converged() {
			t.Errorf("dataset %s not converged after the run", name)
		}
	}

	// The human-readable path renders the same verdict.
	var text, stderr bytes.Buffer
	if code := run([]string{"-target", srv.URL, "-datasets", "1", "-scale", "0.02", "-prefix", "text"}, &text, &stderr); code != 0 {
		t.Fatalf("text run exited %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(text.String(), "PASS") || json.Valid(text.Bytes()) {
		t.Errorf("text summary:\n%s", text.String())
	}

	// A rate-limited run respects the cap, within slack: 4 batches at
	// 200/s cannot finish faster than ~15ms.
	v2, _ := runJSON(t, 0, "-target", srv.URL, "-datasets", "1", "-clients", "1",
		"-scale", "0.02", "-batch", "30", "-rate", "200", "-seed", "99", "-prefix", "ratecap")
	p = v2.Phases[0]
	if p.Appends < 2 {
		t.Fatalf("rate-limited run made only %d appends", p.Appends)
	}
	if minWall := float64(p.Appends-1) / 200; p.Seconds < minWall {
		t.Errorf("rate cap violated: %d appends in %.3fs (< %.3fs)", p.Appends, p.Seconds, minWall)
	}
}
