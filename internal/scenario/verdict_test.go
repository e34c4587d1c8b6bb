package scenario

import (
	"net/http"
	"testing"
	"time"
)

func checkByName(t *testing.T, v *Verdict, name, phase string) *Check {
	t.Helper()
	for i := range v.Checks {
		c := &v.Checks[i]
		if c.Name == name && c.Phase == phase {
			return c
		}
	}
	t.Fatalf("no %q check for phase %q in %+v", name, phase, v.Checks)
	return nil
}

func TestEvaluateRate(t *testing.T) {
	v := &Verdict{Phases: []PhaseReport{
		{Name: "ok", TargetRate: 10, AchievedRate: 9.5},
		{Name: "slow", TargetRate: 10, AchievedRate: 8},
		{Name: "starved", TargetRate: 10, AchievedRate: 10, Starved: true},
		{Name: "unpaced", AchievedRate: 100},
	}}
	v.evaluate(&SLO{})
	if c := checkByName(t, v, "rate", "ok"); !c.Pass {
		t.Errorf("5%% deviation failed the default 10%% tolerance: %+v", c)
	}
	if c := checkByName(t, v, "rate", "slow"); c.Pass {
		t.Errorf("20%% deviation passed: %+v", c)
	}
	if c := checkByName(t, v, "rate", "starved"); c.Pass {
		t.Errorf("starved phase passed its rate check: %+v", c)
	}
	for _, c := range v.Checks {
		if c.Phase == "unpaced" {
			t.Errorf("unpaced phase got a rate check: %+v", c)
		}
	}
	if v.Pass {
		t.Error("verdict passed with a failing check")
	}
}

func TestEvaluateZero5xx(t *testing.T) {
	kill := PhaseReport{
		Name:     "kill",
		Injected: []string{"kill-backend 0 @2s"},
		Scrape:   &ScrapeReport{},
	}
	clean := kill
	v := &Verdict{Phases: []PhaseReport{clean}}
	v.evaluate(&SLO{Zero5xxDuringKill: true})
	if c := checkByName(t, v, "zero-5xx", "kill"); !c.Pass {
		t.Errorf("clean kill phase failed: %+v", c)
	}

	// Executor-observed 5xx fail the check.
	seen := kill
	seen.Errors5xx = 2
	v = &Verdict{Phases: []PhaseReport{seen}}
	v.evaluate(&SLO{Zero5xxDuringKill: true})
	if c := checkByName(t, v, "zero-5xx", "kill"); c.Pass || c.Actual != 2 {
		t.Errorf("executor 5xx passed: %+v", c)
	}

	// The scraped server-side delta is the stronger witness: it fails
	// the check even when the executor saw none.
	scraped := kill
	scraped.Scrape = &ScrapeReport{HTTP5xxDelta: 3}
	v = &Verdict{Phases: []PhaseReport{scraped}}
	v.evaluate(&SLO{Zero5xxDuringKill: true})
	if c := checkByName(t, v, "zero-5xx", "kill"); c.Pass || c.Actual != 3 {
		t.Errorf("scraped 5xx delta passed: %+v", c)
	}

	// A failed boundary scrape means the assertion could not be
	// verified server-side — that is a failure, not a free pass.
	broken := kill
	broken.Scrape = &ScrapeReport{Error: "connection refused"}
	v = &Verdict{Phases: []PhaseReport{broken}}
	v.evaluate(&SLO{Zero5xxDuringKill: true})
	if c := checkByName(t, v, "zero-5xx", "kill"); c.Pass {
		t.Errorf("failed scrape passed the zero-5xx check: %+v", c)
	}

	// Phases without injections are not asserted.
	v = &Verdict{Phases: []PhaseReport{{Name: "calm", Errors5xx: 7}}}
	v.evaluate(&SLO{Zero5xxDuringKill: true})
	for _, c := range v.Checks {
		if c.Name == "zero-5xx" {
			t.Errorf("non-inject phase got a zero-5xx check: %+v", c)
		}
	}
}

func TestEvaluateP99SkipsUnpaced(t *testing.T) {
	lat := &LatencyStats{P99Millis: 50}
	v := &Verdict{Phases: []PhaseReport{
		{Name: "paced", TargetRate: 10, AchievedRate: 10, Latency: lat},
		{Name: "unpaced", Latency: &LatencyStats{P99Millis: 9999}},
	}}
	v.evaluate(&SLO{P99AppendMillis: 100})
	if c := checkByName(t, v, "p99-append", "paced"); !c.Pass {
		t.Errorf("paced p99 under the bound failed: %+v", c)
	}
	for _, c := range v.Checks {
		if c.Name == "p99-append" && c.Phase == "unpaced" {
			t.Errorf("unpaced phase got a p99 check: %+v", c)
		}
	}
}

func TestEvaluateQuiesceAndQuality(t *testing.T) {
	v := &Verdict{
		QuiesceSeconds: 3,
		Quality:        &Quality{Precision: 0.95, Recall: 0.9},
	}
	v.evaluate(&SLO{QuiesceSeconds: 10, MinPrecision: 0.9, MinRecall: 0.8})
	for _, name := range []string{"quiesce", "precision", "recall"} {
		if c := checkByName(t, v, name, ""); !c.Pass {
			t.Errorf("%s failed: %+v", name, c)
		}
	}
	if !v.Pass {
		t.Error("verdict failed with all checks passing")
	}

	// Missing quality (results unreadable) fails the quality gates
	// rather than silently skipping them.
	v = &Verdict{QuiesceSeconds: 3}
	v.evaluate(&SLO{MinPrecision: 0.9, MinRecall: 0.8})
	if c := checkByName(t, v, "precision", ""); c.Pass {
		t.Errorf("missing quality passed precision: %+v", c)
	}
	if c := checkByName(t, v, "recall", ""); c.Pass {
		t.Errorf("missing quality passed recall: %+v", c)
	}
}

func TestEvaluateErrorsFailEvenWithoutSLO(t *testing.T) {
	v := &Verdict{Phases: []PhaseReport{{Name: "p", OtherErrors: 1}}}
	v.evaluate(nil)
	if v.Pass {
		t.Error("transport errors passed a no-SLO run")
	}
	v = &Verdict{QuiesceErrors: 1}
	v.evaluate(nil)
	if v.Pass {
		t.Error("quiesce errors passed a no-SLO run")
	}
	v = &Verdict{Phases: []PhaseReport{{Name: "p"}}}
	v.evaluate(nil)
	if !v.Pass {
		t.Error("clean no-SLO run failed")
	}
}

func TestSummarizeLatency(t *testing.T) {
	if summarizeLatency(nil) != nil {
		t.Fatal("empty sample produced latency stats")
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	l := summarizeLatency(samples)
	if l.P50Millis != 50 || l.P99Millis != 99 || l.MaxMillis != 100 {
		t.Fatalf("percentiles wrong: %+v", l)
	}
	// Tiny samples: the nearest rank clamps into the sample, so a p99
	// over two values selects the larger instead of indexing past it.
	l = summarizeLatency([]time.Duration{2 * time.Millisecond, 1 * time.Millisecond})
	if l.P50Millis != 1 || l.P99Millis != 2 || l.MaxMillis != 2 || l.MeanMillis != 1.5 {
		t.Fatalf("two-sample summary wrong: %+v", l)
	}
	for n := 1; n <= len(samples); n++ {
		for _, q := range []float64{0.0001, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			if got := quantile(samples[:n], q); got < samples[0] || got > samples[n-1] {
				t.Fatalf("n=%d q=%v: quantile %v outside the sample", n, q, got)
			}
		}
	}
	if quantile(nil, 0.99) != 0 {
		t.Fatal("quantile of an empty sample must be 0")
	}
}

// TestRetryAfter is table-driven over the header shapes a 429 can
// carry: delta-seconds are honored (and clamped), everything else falls
// back to the one-second default.
func TestRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"absent", "", time.Second},
		{"zero", "0", 0},
		{"five-seconds", "5", 5 * time.Second},
		{"padded", " 2 ", 2 * time.Second},
		{"negative-falls-back", "-3", time.Second},
		{"http-date-falls-back", "Fri, 08 Aug 2026 00:00:00 GMT", time.Second},
		{"garbage-falls-back", "soon", time.Second},
		{"huge-is-clamped", "3600", 10 * time.Second},
	} {
		hdr := http.Header{}
		if tc.value != "" {
			hdr.Set("Retry-After", tc.value)
		}
		if got := retryAfter(hdr); got != tc.want {
			t.Errorf("%s: retryAfter(%q) = %v, want %v", tc.name, tc.value, got, tc.want)
		}
	}
}
