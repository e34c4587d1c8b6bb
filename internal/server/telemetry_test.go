package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/telemetry"
	"copydetect/internal/testkit"
)

// TestAppendBodySizeCap is the regression test for unbounded direct
// appends: the daemon must refuse an oversized JSON body with 413, the
// same way the gateway's maxWriteBody does for proxied writes.
func TestAppendBodySizeCap(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 256
	defer func() { maxBodyBytes = old }()

	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/cap", nil, nil, nil), http.StatusCreated)

	big := appendRequest{Observations: []dataset.Record{
		{Source: "s1", Item: "d1", Value: strings.Repeat("x", 512)},
	}}
	var er errorResponse
	resp := do(t, srv, http.MethodPost, "/v1/datasets/cap/observations", big, &er, nil)
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)
	if !strings.Contains(er.Error, "size limit") {
		t.Errorf("413 body = %q, want a size-limit message", er.Error)
	}

	// An oversized create body is refused the same way.
	resp = do(t, srv, http.MethodPut, "/v1/datasets/cap2", map[string]string{"pad": strings.Repeat("y", 512)}, nil, nil)
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)

	// Under the cap everything still works.
	small := appendRequest{Observations: []dataset.Record{{Source: "s1", Item: "d1", Value: "v"}}}
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/cap/observations", small, nil, nil), http.StatusAccepted)
}

// TestAppendAdmissionControl drives convergence lag past the
// high-water mark (rounds blocked on the test hook, so lag can only
// grow) and expects 429 + Retry-After, replication traffic exempted,
// and recovery to 202 once the backlog drains.
func TestAppendAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	testHookRoundStart = func(*Managed) { <-release }
	defer func() { testHookRoundStart = nil }()

	reg := NewRegistry(Config{AppendHighWater: 2})
	defer reg.Close()
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/bp", nil, nil, nil), http.StatusCreated)
	batch := func(i int) appendRequest {
		return appendRequest{Observations: []dataset.Record{
			{Source: "s1", Item: fmt.Sprintf("d%d", i), Value: "v"},
		}}
	}

	// Two appends fit under the high-water mark of 2 (lag is 0, then 1).
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/bp/observations", batch(1), nil, nil), http.StatusAccepted)
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/bp/observations", batch(2), nil, nil), http.StatusAccepted)

	// The third finds lag 2 with no round able to publish: refused.
	var er errorResponse
	resp := do(t, srv, http.MethodPost, "/v1/datasets/bp/observations", batch(3), &er, nil)
	wantStatus(t, resp, http.StatusTooManyRequests)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}
	if !strings.Contains(er.Error, "backlog") {
		t.Errorf("429 body = %q, want a backlog message", er.Error)
	}

	// A sequenced append is replication traffic already admitted at the
	// gateway: it must pass even over the high-water mark.
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/bp/observations", batch(3), nil,
		http.Header{SeqHeader: {"3"}}), http.StatusAccepted)

	// Drain: let rounds run, wait for convergence, and the dataset
	// accepts client writes again.
	close(release)
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/bp/quiesce", nil, nil, nil), http.StatusOK)
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/bp/observations", batch(4), nil, nil), http.StatusAccepted)

	var b strings.Builder
	if err := treg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "copydetectd_admission_rejections_total 1") {
		t.Errorf("admission rejection not counted:\n%s", b.String())
	}
}

// TestRegistryMetricsExposition scrapes a durable registry after one
// full append/converge cycle and checks every advertised family is
// present, parseable and plausible.
func TestRegistryMetricsExposition(t *testing.T) {
	reg, err := Open(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/m", nil, nil, nil), http.StatusCreated)
	// A workload with candidate pairs, so the round has detector work to
	// report.
	batch := appendRequest{Observations: dataset.Records(testkit.Generate(t, streamPreset))}
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/m/observations", batch, nil, nil), http.StatusAccepted)
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/m/quiesce", nil, nil, nil), http.StatusOK)

	var b strings.Builder
	if err := treg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseLines(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, b.String())
	}
	value := func(name string, labels map[string]string) (float64, bool) {
	next:
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			for k, v := range labels {
				if s.Labels[k] != v {
					continue next
				}
			}
			return s.Value, true
		}
		return 0, false
	}

	if v, ok := value("copydetectd_datasets", nil); !ok || v != 1 {
		t.Errorf("copydetectd_datasets = %v (present=%v), want 1", v, ok)
	}
	if v, ok := value("copydetectd_rounds_total", map[string]string{"algorithm": "INCREMENTAL"}); !ok || v < 1 {
		t.Errorf("rounds_total{INCREMENTAL} = %v (present=%v), want >= 1", v, ok)
	}
	// One round was published, so the work counters are exactly that
	// round's core.Stats — what the benchmark ledger calls
	// core.computations and core.values_examined.
	m, _ := reg.Get("m")
	stats := m.Published().Outcome.TotalStats
	if stats.Computations == 0 || stats.ValuesExamined == 0 {
		t.Fatalf("published round reports no work: %+v", stats)
	}
	if v, ok := value("copydetectd_round_computations_total", map[string]string{"algorithm": "INCREMENTAL"}); !ok || v != float64(stats.Computations) {
		t.Errorf("round_computations_total{INCREMENTAL} = %v (present=%v), want %d", v, ok, stats.Computations)
	}
	if v, ok := value("copydetectd_round_values_examined_total", map[string]string{"algorithm": "INCREMENTAL"}); !ok || v != float64(stats.ValuesExamined) {
		t.Errorf("round_values_examined_total{INCREMENTAL} = %v (present=%v), want %d", v, ok, stats.ValuesExamined)
	}
	if v, ok := value("copydetectd_round_duration_seconds_count", map[string]string{"algorithm": "INCREMENTAL"}); !ok || v < 1 {
		t.Errorf("round_duration count = %v (present=%v), want >= 1", v, ok)
	}
	if v, ok := value("copydetectd_wal_append_seconds_count", nil); !ok || v < 1 {
		t.Errorf("wal_append count = %v (present=%v), want >= 1 (durable registry)", v, ok)
	}
	if v, ok := value("copydetectd_dataset_convergence_lag_appends", map[string]string{"dataset": "m"}); !ok || v != 0 {
		t.Errorf("convergence lag appends = %v (present=%v), want 0 after quiesce", v, ok)
	}
	if v, ok := value("copydetectd_dataset_convergence_lag_seconds", map[string]string{"dataset": "m"}); !ok || v != 0 {
		t.Errorf("convergence lag seconds = %v (present=%v), want 0 after quiesce", v, ok)
	}
	if v, ok := value("copydetectd_scheduler_queue_depth", nil); !ok || v != 0 {
		t.Errorf("scheduler queue depth = %v (present=%v), want 0 after quiesce", v, ok)
	}
	if _, ok := value("copydetectd_wal_fsync_seconds_count", nil); !ok {
		t.Error("wal_fsync family missing from exposition")
	}
}
