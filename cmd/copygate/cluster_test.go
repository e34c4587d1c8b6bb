// Cluster equivalence acceptance test (ISSUE 4, extended for
// replication in ISSUE 5): spawn three real copydetectd processes and a
// real copygate process (running the default -replicas 2, and once
// -replicas 1), stream interleaved datasets through the gateway,
// quiesce — and every dataset's wire responses must be byte-identical
// (timers and scheduler round counters aside) to the same streamed
// datasets run through a single direct daemon. Then, at -replicas 2,
// SIGKILL one backend mid-stream: with
// replication, not a single request may fail — appends and reads fail
// over to the replica (marked X-Copydetect-Replica) — and the final
// converged responses must still match the single uninterrupted daemon.
// Finally the killed backend is restarted on its old address and
// anti-entropy must catch it back up until it serves its datasets again
// as primary.
//
// The gateway is a real process: the test re-execs its own binary,
// which TestMain turns into copygate when the child marker variable is
// set. The daemons are the real cmd/copydetectd, built once with the go
// tool. Set CLUSTER_E2E_LOG_DIR to keep every child's output as
// <name>.log (CI uploads them as artifacts on failure).
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copydetect/internal/cluster"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
	"copydetect/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, run) }

// startDaemon launches the real copydetectd, built once, at addr
// (restarting a killed backend must come back where the ring expects it).
func startDaemon(t *testing.T, name, addr string, args ...string) *testkit.Proc {
	return testkit.Start(t, name, testkit.Build(t, "copydetect/cmd/copydetectd"), addr, args...)
}

// volatile is what the published views may differ in between the cluster
// and the single daemon: wall-clock timers and the service-round counter
// (how many scheduler rounds the appends coalesced into — a timing
// artifact). Everything else, floats included, must be identical.
var volatile = []string{"round", "detectMillis", "fusionMillis", "wallMillis"}

// workload is the streamed input for one dataset.
type workload struct {
	name    string
	batches [][]dataset.Record
	truth   []dataset.Record
}

// makeWorkloads generates the datasets once; both the reference and the
// cluster run stream exactly these batches in exactly this order.
func makeWorkloads(t *testing.T, n int) []workload {
	t.Helper()
	ws := make([]workload, n)
	for i := range ws {
		pr := testkit.Lookup("book-cs")[0]
		pr.Config.Seed = 31 + int64(i)
		ds := testkit.Generate(t, pr)
		ws[i] = workload{name: fmt.Sprintf("ds-%d", i), batches: testkit.Batches(dataset.Records(ds), 3), truth: dataset.TruthRecords(ds)}
	}
	return ws
}

// stream pushes every workload through base: the batches interleaved
// round-robin across datasets, then truths, then quiesce. Returns the
// per-dataset views.
func stream(t *testing.T, httpClient *http.Client, base string, ws []workload) map[string]map[string]map[string]any {
	t.Helper()
	clients := make([]*testkit.Client, len(ws))
	for i, w := range ws {
		clients[i] = &testkit.Client{T: t, HTTP: httpClient, Base: base, Name: w.name}
		clients[i].Must(http.MethodPut, "", nil, http.StatusCreated)
	}
	maxBatches := 0
	for _, w := range ws {
		if len(w.batches) > maxBatches {
			maxBatches = len(w.batches)
		}
	}
	for j := 0; j < maxBatches; j++ {
		for i, w := range ws {
			if j < len(w.batches) {
				clients[i].Must(http.MethodPost, "/observations", testkit.Append{Observations: w.batches[j]}, http.StatusAccepted)
			}
		}
	}
	for i, w := range ws {
		clients[i].Must(http.MethodPost, "/observations", testkit.Append{Truth: w.truth}, http.StatusAccepted)
	}
	views := map[string]map[string]map[string]any{}
	for i, w := range ws {
		clients[i].Must(http.MethodPost, "/quiesce", nil, http.StatusOK)
		views[w.name] = clients[i].Published(volatile...)
	}
	return views
}

// TestClusterEquivalence is the acceptance criterion. Skipped under
// -short: it spawns four child processes and has its own CI job
// (cluster-e2e); the in-process routing/health/retry behavior is
// covered by internal/cluster's fast tests.
func TestClusterEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; run without -short (CI job cluster-e2e)")
	}
	ws := makeWorkloads(t, 6)
	httpClient := &http.Client{Timeout: 90 * time.Second}

	// At -replicas 1 a killed owner is designed to 503 its datasets, so
	// that input streams and compares only: no failover phase.
	for _, c := range []struct {
		name, tag         string
		workers, replicas int
		failover          bool
	}{
		{"workers=1", "w1", 1, 2, false},
		{"workers=4", "w4", 4, 2, true},
		{"replicas=1", "w4-r1", 4, 1, false},
	} {
		workers := c.workers
		t.Run(c.name, func(t *testing.T) {
			// Reference: the same streamed workload against one direct
			// daemon (in-process, same handler stack as the real binary).
			reg := server.NewRegistry(server.Config{Options: core.Options{Workers: workers}})
			defer reg.Close()
			ref := httptest.NewServer(server.NewHandler(reg))
			defer ref.Close()
			want := stream(t, httpClient, ref.URL, ws)

			// Cluster: three real daemon processes behind a real gateway
			// process.
			daemons := make([]*testkit.Proc, 3)
			urls := make([]string, 3)
			for i := range daemons {
				// Durable daemons, so the /metrics scrape below sees real
				// WAL append/fsync observations, not empty histograms.
				daemons[i] = startDaemon(t, fmt.Sprintf("copydetectd-%s-%d", c.tag, i), "127.0.0.1:0",
					"-workers", fmt.Sprint(workers),
					"-data-dir", filepath.Join(t.TempDir(), "data"))
				urls[i] = daemons[i].Base
			}
			gate := testkit.Start(t, "copygate-"+c.tag, os.Args[0], "127.0.0.1:0",
				"-backends", strings.Join(urls, ","), "-probe-every", "100ms", "-replicas", fmt.Sprint(c.replicas))
			got := stream(t, httpClient, gate.Base, ws)

			// The ring is a pure function of the backend list: recompute
			// placements to name the owner in failures and to pick the
			// kill victim below.
			ring, err := cluster.NewRing(urls)
			if err != nil {
				t.Fatal(err)
			}
			pairsTotal := 0
			for _, w := range ws {
				if d := testkit.Diff(got[w.name], want[w.name]); d != "" {
					t.Errorf("dataset %q (owner backend %d) diverges from the single daemon: %s", w.name, ring.Owner(w.name), d)
				}
				if algo, _ := got[w.name]["/copies"]["algorithm"].(string); algo != "INCREMENTAL" {
					t.Errorf("dataset %q final round ran %q, want INCREMENTAL", w.name, algo)
				}
				pairs, _ := got[w.name]["/copies"]["pairs"].([]any)
				pairsTotal += len(pairs)
			}
			if pairsTotal == 0 {
				t.Fatal("workloads detected no copying pairs; enlarge the presets")
			}

			// ETag revalidation passes through the gateway unchanged.
			copies := gate.Base + "/v1/datasets/" + ws[0].name + "/copies"
			_, hdr, _, err := testkit.Do(httpClient, http.MethodGet, copies, nil, nil)
			etag := hdr.Get("ETag")
			if err != nil || etag == "" {
				t.Fatalf("no ETag through the gateway (err %v)", err)
			}
			status, _, _, err := testkit.Do(httpClient, http.MethodGet, copies, nil, http.Header{"If-None-Match": {etag}})
			if err != nil || status != http.StatusNotModified {
				t.Errorf("conditional GET through gateway: %d (err %v), want 304", status, err)
			}

			if !c.failover {
				return
			}
			// Replication failover (the ISSUE 5 acceptance criterion): the
			// gateway runs the default -replicas 2, so SIGKILLing the owner
			// of ds-0 mid-stream must not surface a single 5xx — every
			// append and read fails over to the replica within the request —
			// and the final converged responses must still be byte-identical
			// (timers and round counters aside) to the single daemon.
			victim := ring.Owner(ws[0].name)
			victimAddr := strings.TrimPrefix(urls[victim], "http://")
			extra1 := []dataset.Record{{Source: "late-src", Item: "late-item", Value: "late-val"}}
			extra2 := []dataset.Record{{Source: "later-src", Item: "late-item", Value: "late-val"}}

			// Wave 1 lands with every backend alive...
			for _, w := range ws {
				gc := &testkit.Client{T: t, HTTP: httpClient, Base: gate.Base, Name: w.name}
				gc.Must(http.MethodPost, "/observations", testkit.Append{Observations: extra1}, http.StatusAccepted)
			}
			// Observability (ISSUE 6), mid-load with every backend alive:
			// one request's trace ID must appear in both the gateway's and
			// a backend's access log, and /metrics on all four processes
			// must expose the advertised families, every line parseable.
			tStatus, tHdr, tRaw, tErr := testkit.Do(httpClient, http.MethodGet,
				gate.Base+"/v1/datasets/"+ws[0].name+"/copies", nil, nil)
			if tErr != nil || tStatus != http.StatusOK {
				t.Fatalf("traced read: status=%d err=%v body=%s", tStatus, tErr, tRaw)
			}
			trace := tHdr.Get("X-Copydetect-Trace")
			if len(trace) != 16 {
				t.Errorf("gateway returned trace ID %q, want a generated 16-hex ID", trace)
			}
			inLogs := func() bool {
				if !strings.Contains(gate.Output(), "trace="+trace) {
					return false
				}
				for _, d := range daemons {
					if strings.Contains(d.Output(), "trace="+trace) {
						return true
					}
				}
				return false
			}
			for deadline := time.Now().Add(10 * time.Second); !inLogs(); {
				if time.Now().After(deadline) {
					t.Errorf("trace ID %s missing from the gateway's and a backend's access logs", trace)
					break
				}
				time.Sleep(20 * time.Millisecond)
			}

			// The shared scrape client parses every exposition line: a
			// malformed line anywhere fails the scrape.
			gwSamples, err := telemetry.Scrape(httpClient, gate.Base)
			if err != nil {
				t.Fatalf("scrape: %v", err)
			}
			if v, ok := telemetry.Value(gwSamples, "copygate_http_requests_total",
				map[string]string{"route": "/v1/datasets/{name}/observations", "code": "202"}); !ok || v < 1 {
				t.Errorf("gateway request counter for accepted appends = %v (present=%v), want >= 1", v, ok)
			}
			if v, ok := telemetry.Value(gwSamples, "copygate_http_request_duration_seconds_count",
				map[string]string{"route": "/v1/datasets/{name}/observations"}); !ok || v < 1 {
				t.Errorf("gateway latency histogram for appends = %v (present=%v), want >= 1", v, ok)
			}
			if _, ok := telemetry.Value(gwSamples, "copygate_mirror_queue_depth", nil); !ok {
				t.Error("gateway mirror queue depth missing from /metrics")
			}
			for i := range daemons {
				if v, ok := telemetry.Value(gwSamples, "copygate_backend_healthy",
					map[string]string{"backend": urls[i]}); !ok || v != 1 {
					t.Errorf("copygate_backend_healthy{%s} = %v (present=%v), want 1", urls[i], v, ok)
				}
			}
			for i, d := range daemons {
				samples, err := telemetry.Scrape(httpClient, d.Base)
				if err != nil {
					t.Fatalf("scrape backend %d: %v", i, err)
				}
				if v, ok := telemetry.Value(samples, "copydetectd_http_requests_total", nil); !ok || v < 1 {
					t.Errorf("backend %d request counter = %v (present=%v), want >= 1", i, v, ok)
				}
				if _, ok := telemetry.Value(samples, "copydetectd_scheduler_queue_depth", nil); !ok {
					t.Errorf("backend %d scheduler queue depth missing from /metrics", i)
				}
				if v, ok := telemetry.Value(samples, "copydetectd_wal_fsync_seconds_count", nil); !ok || v < 1 {
					t.Errorf("backend %d WAL fsync count = %v (present=%v), want >= 1 (durable daemon)", i, v, ok)
				}
				if v, ok := telemetry.Value(samples, "copydetectd_rounds_total", nil); !ok || v < 1 {
					t.Errorf("backend %d rounds counter = %v (present=%v), want >= 1", i, v, ok)
				}
				lagSeen := false
				for _, s := range samples {
					if s.Name == "copydetectd_dataset_convergence_lag_appends" {
						lagSeen = true
						break
					}
				}
				if !lagSeen {
					t.Errorf("backend %d exposes no per-dataset convergence lag", i)
				}
			}

			t.Logf("killing backend %d (%s) mid-stream", victim, urls[victim])
			daemons[victim].Kill()
			// ...wave 2 lands with the victim dead: zero 5xx, and requests
			// for the victim's datasets are answered by the replica, marked.
			for _, w := range ws {
				status, hdr, raw, err := testkit.Do(httpClient, http.MethodPost,
					gate.Base+"/v1/datasets/"+w.name+"/observations", testkit.Append{Observations: extra2}, nil)
				if err != nil || status != http.StatusAccepted {
					t.Errorf("append to %q with backend %d dead: status=%d err=%v body=%s, want 202 (zero 5xx)",
						w.name, victim, status, err, raw)
				}
				if ring.Owner(w.name) == victim && hdr.Get("X-Copydetect-Replica") != "true" {
					t.Errorf("failover append to %q not marked X-Copydetect-Replica", w.name)
				}
				status, hdr, raw, err = testkit.Do(httpClient, http.MethodGet,
					gate.Base+"/v1/datasets/"+w.name+"/copies", nil, nil)
				if err != nil || status != http.StatusOK {
					t.Errorf("read of %q with backend %d dead: status=%d err=%v body=%s, want 200 (zero 5xx)",
						w.name, victim, status, err, raw)
				}
				if ring.Owner(w.name) == victim && hdr.Get("X-Copydetect-Replica") != "true" {
					t.Errorf("failover read of %q not marked X-Copydetect-Replica", w.name)
				}
			}
			// Quiesce everything while the victim is still down (also a
			// zero-5xx path) so every replica has a published round before
			// anti-entropy exports its state.
			for _, w := range ws {
				status, _, raw, err := testkit.Do(httpClient, http.MethodPost,
					gate.Base+"/v1/datasets/"+w.name+"/quiesce", nil, nil)
				if err != nil || status != http.StatusOK {
					t.Errorf("quiesce of %q with backend %d dead: status=%d err=%v body=%s, want 200",
						w.name, victim, status, err, raw)
				}
			}
			// The gateway notices: /healthz degrades once probes eject the
			// dead backend, and the dataset list marks itself partial.
			waitHealthz(t, httpClient, gate.Base, 10*time.Second, func(hz healthzView) bool {
				return hz.Status == "degraded" && !hz.Backends[victim].Healthy
			}, "ejection of the dead backend")
			status, _, raw, err := testkit.Do(httpClient, http.MethodGet, gate.Base+"/v1/datasets", nil, nil)
			if err != nil || status != http.StatusOK {
				t.Fatalf("degraded list: status=%d err=%v", status, err)
			}
			var lr struct {
				Partial bool `json:"partial"`
			}
			if err := json.Unmarshal(raw, &lr); err != nil || !lr.Partial {
				t.Errorf("list with a dead backend: partial=%v err=%v body=%s", lr.Partial, err, raw)
			}

			// Readmission: restart the victim on its old address (fresh
			// in-memory process — everything it knew is gone) and wait for
			// probes to readmit it and anti-entropy to catch it back up.
			t.Logf("restarting backend %d on %s", victim, victimAddr)
			daemons[victim] = startDaemon(t, fmt.Sprintf("copydetectd-%s-%d-restarted", c.tag, victim),
				victimAddr, "-workers", fmt.Sprint(workers))
			waitHealthz(t, httpClient, gate.Base, 30*time.Second, func(hz healthzView) bool {
				if hz.Status != "ok" {
					return false
				}
				for _, b := range hz.Backends {
					if b.StaleDatasets != 0 {
						return false
					}
				}
				return true
			}, "readmission and anti-entropy catch-up")

			// The reference daemon receives the same late waves; both sides
			// quiesce, and the final wire responses must agree again —
			// served by the recovered backend itself, not its replica.
			for _, w := range ws {
				rc := &testkit.Client{T: t, HTTP: httpClient, Base: ref.URL, Name: w.name}
				rc.Must(http.MethodPost, "/observations", testkit.Append{Observations: extra1}, http.StatusAccepted)
				rc.Must(http.MethodPost, "/observations", testkit.Append{Observations: extra2}, http.StatusAccepted)
				rc.Must(http.MethodPost, "/quiesce", nil, http.StatusOK)
				gc := &testkit.Client{T: t, HTTP: httpClient, Base: gate.Base, Name: w.name}
				gc.Must(http.MethodPost, "/quiesce", nil, http.StatusOK)
				if d := testkit.Diff(gc.Published(volatile...), rc.Published(volatile...)); d != "" {
					t.Errorf("dataset %q after kill+readmission diverges from the single daemon: %s", w.name, d)
				}
			}
			// And the recovered process itself holds its datasets again: a
			// read through the gateway is served without the replica marker,
			// and the daemon answers directly with the full stream.
			for _, w := range ws {
				if ring.Owner(w.name) != victim {
					continue
				}
				status, hdr, raw, err := testkit.Do(httpClient, http.MethodGet,
					gate.Base+"/v1/datasets/"+w.name, nil, nil)
				if err != nil || status != http.StatusOK {
					t.Errorf("read of %q after readmission: status=%d err=%v body=%s", w.name, status, err, raw)
				}
				if hdr.Get("X-Copydetect-Replica") != "" {
					t.Errorf("read of %q still served by the replica after anti-entropy", w.name)
				}
				wantVersion := uint64(len(w.batches) + 3) // batches + truth + two extra waves
				status, _, raw, err = testkit.Do(httpClient, http.MethodGet, urls[victim]+"/v1/datasets/"+w.name, nil, nil)
				if err != nil || status != http.StatusOK {
					t.Errorf("direct read of %q from restarted backend: status=%d err=%v body=%s", w.name, status, err, raw)
					continue
				}
				var inf struct {
					Version uint64 `json:"version"`
				}
				if err := json.Unmarshal(raw, &inf); err != nil || inf.Version != wantVersion {
					t.Errorf("restarted backend holds %q at version %d (err %v), want %d", w.name, inf.Version, err, wantVersion)
				}
			}
		})
	}
}

// healthzView is the subset of the gateway /healthz body the test
// inspects.
type healthzView struct {
	Status   string                  `json:"status"`
	Backends []cluster.BackendStatus `json:"backends"`
}

// waitHealthz polls the gateway's /healthz until cond holds.
func waitHealthz(t *testing.T, client *http.Client, base string, timeout time.Duration, cond func(healthzView) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last []byte
	for time.Now().Before(deadline) {
		status, _, raw, err := testkit.Do(client, http.MethodGet, base+"/healthz", nil, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("healthz: status=%d err=%v", status, err)
		}
		last = raw
		var hz healthzView
		if err := json.Unmarshal(raw, &hz); err != nil {
			t.Fatalf("healthz body %q: %v", raw, err)
		}
		if cond(hz) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("gateway never reached %s: %s", what, last)
}
