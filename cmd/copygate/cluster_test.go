// Cluster equivalence acceptance test (ISSUE 4, extended for
// replication in ISSUE 5): spawn three real copydetectd processes and a
// real copygate process (running the default -replicas 2), stream
// interleaved datasets through the gateway, quiesce — and every
// dataset's wire responses must be byte-identical (timers and scheduler
// round counters aside) to the same streamed datasets run through a
// single direct daemon. Then SIGKILL one backend mid-stream: with
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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"copydetect/internal/cluster"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/gen"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
)

const childEnv = "COPYGATE_CHILD_ARGS"

var (
	buildOnce sync.Once
	buildDir  string
	buildBin  string
	buildErr  error
)

func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			fmt.Fprintf(os.Stderr, "bad %s: %v\n", childEnv, err)
			os.Exit(2)
		}
		os.Exit(run(args))
	}
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildCopydetectd compiles the real daemon once per test run.
func buildCopydetectd(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "copygate-e2e-")
		if buildErr != nil {
			return
		}
		buildBin = filepath.Join(buildDir, "copydetectd")
		cmd := exec.Command("go", "build", "-o", buildBin, "copydetect/cmd/copydetectd")
		cmd.Dir = filepath.Join("..", "..") // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build copydetectd: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a
// child's output pipe and the test's mid-run reads (the trace-ID
// assertion greps a child's access log while it is still serving).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one child process (daemon or gateway) with captured output.
type proc struct {
	name   string
	cmd    *exec.Cmd
	base   string // http://host:port once serving
	output *syncBuffer
	exited chan struct{}
}

// startDaemon launches the built copydetectd binary on an ephemeral
// port; startDaemonAt pins the listen address (restarting a killed
// backend must come back where the ring expects it).
func startDaemon(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	return startDaemonAt(t, name, "127.0.0.1:0", args...)
}

func startDaemonAt(t *testing.T, name, addr string, args ...string) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args = append(args, "-addr", addr, "-addr-file", addrFile)
	return spawn(t, name, exec.Command(buildCopydetectd(t), args...), addrFile)
}

// startGateway re-execs the test binary as a real copygate process (the
// child marker env variable routes TestMain into run).
func startGateway(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	return spawn(t, name, cmd, addrFile)
}

// spawn starts the child, tees its output, and waits for the address
// file that signals it is serving.
func spawn(t *testing.T, name string, cmd *exec.Cmd, addrFile string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: cmd, output: &syncBuffer{}}
	var sink io.Writer = p.output
	if dir := os.Getenv("CLUSTER_E2E_LOG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o777); err == nil {
			if f, err := os.Create(filepath.Join(dir, name+".log")); err == nil {
				t.Cleanup(func() { f.Close() })
				sink = io.MultiWriter(p.output, f)
			}
		}
	}
	cmd.Stdout = sink
	cmd.Stderr = sink
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	p.exited = make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(p.kill)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil && strings.Contains(string(raw), ":") {
			p.base = "http://" + strings.TrimSpace(string(raw))
			return p
		}
		select {
		case <-p.exited:
			t.Fatalf("%s exited during startup; output:\n%s", name, p.output.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	p.kill()
	t.Fatalf("%s never came up; output:\n%s", name, p.output.String())
	return nil
}

// kill SIGKILLs the process and reaps it. Safe to call twice.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// httpDo runs one JSON request and returns the status and raw body;
// httpDoHdr additionally returns the response headers (the replication
// phase checks the X-Copydetect-Replica failover marker).
func httpDo(client *http.Client, method, url string, body any) (status int, raw []byte, err error) {
	status, _, raw, err = httpDoHdr(client, method, url, body)
	return status, raw, err
}

func httpDoHdr(client *http.Client, method, url string, body any) (status int, hdr http.Header, raw []byte, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, raw, nil
}

type appendBody struct {
	Observations []dataset.Record `json:"observations,omitempty"`
	Truth        []dataset.Record `json:"truth,omitempty"`
}

// wireClient speaks the copydetectd wire protocol for one dataset
// through one base URL (gateway or daemon — the protocol is identical,
// which is the point).
type wireClient struct {
	t    *testing.T
	http *http.Client
	base string
	name string
}

func (c *wireClient) url(suffix string) string {
	return c.base + "/v1/datasets/" + c.name + suffix
}

func (c *wireClient) must(method, suffix string, body any, wantStatus int) []byte {
	c.t.Helper()
	status, raw, err := httpDo(c.http, method, c.url(suffix), body)
	if err != nil || status != wantStatus {
		c.t.Fatalf("%s %s: status=%d err=%v body=%s", method, c.url(suffix), status, err, raw)
	}
	return raw
}

// published gathers the copies, truth and stats bodies. Wall-clock
// timers and the service-round counter (how many scheduler rounds the
// appends coalesced into — a timing artifact) are removed; everything
// else, floats included, must be identical between the cluster and the
// single daemon.
func (c *wireClient) published() map[string]map[string]any {
	c.t.Helper()
	views := map[string]map[string]any{}
	for _, ep := range []string{"/copies", "/truth", "/stats"} {
		raw := c.must(http.MethodGet, ep, nil, http.StatusOK)
		out := map[string]any{}
		if err := json.Unmarshal(raw, &out); err != nil {
			c.t.Fatalf("GET %s: bad body %q: %v", ep, raw, err)
		}
		for _, volatile := range []string{"round", "detectMillis", "fusionMillis", "wallMillis"} {
			delete(out, volatile)
		}
		if conv, _ := out["converged"].(bool); !conv {
			c.t.Fatalf("GET %s after quiesce not converged: %v", ep, out)
		}
		views[ep] = out
	}
	return views
}

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
	const batchesPer = 3
	ws := make([]workload, n)
	for i := range ws {
		ds, _, err := gen.Generate(gen.Scale(gen.BookCS(31+int64(i)), 0.04))
		if err != nil {
			t.Fatalf("generate workload %d: %v", i, err)
		}
		recs := dataset.Records(ds)
		per := (len(recs) + batchesPer - 1) / batchesPer
		w := workload{name: fmt.Sprintf("ds-%d", i), truth: dataset.TruthRecords(ds)}
		for start := 0; start < len(recs); start += per {
			end := start + per
			if end > len(recs) {
				end = len(recs)
			}
			w.batches = append(w.batches, recs[start:end])
		}
		ws[i] = w
	}
	return ws
}

// stream pushes every workload through base: the batches interleaved
// round-robin across datasets, then truths, then quiesce. Returns the
// per-dataset views.
func stream(t *testing.T, httpClient *http.Client, base string, ws []workload) map[string]map[string]map[string]any {
	t.Helper()
	clients := make([]*wireClient, len(ws))
	for i, w := range ws {
		clients[i] = &wireClient{t: t, http: httpClient, base: base, name: w.name}
		clients[i].must(http.MethodPut, "", nil, http.StatusCreated)
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
				clients[i].must(http.MethodPost, "/observations", appendBody{Observations: w.batches[j]}, http.StatusAccepted)
			}
		}
	}
	for i, w := range ws {
		clients[i].must(http.MethodPost, "/observations", appendBody{Truth: w.truth}, http.StatusAccepted)
	}
	views := map[string]map[string]map[string]any{}
	for i, w := range ws {
		clients[i].must(http.MethodPost, "/quiesce", nil, http.StatusOK)
		views[w.name] = clients[i].published()
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

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Reference: the same streamed workload against one direct
			// daemon (in-process, same handler stack as the real binary).
			reg := server.NewRegistry(server.Config{Options: core.Options{Workers: workers}})
			defer reg.Close()
			ref := httptest.NewServer(server.NewHandler(reg))
			defer ref.Close()
			want := stream(t, httpClient, ref.URL, ws)

			// Cluster: three real daemon processes behind a real gateway
			// process.
			daemons := make([]*proc, 3)
			urls := make([]string, 3)
			for i := range daemons {
				// Durable daemons, so the /metrics scrape below sees real
				// WAL append/fsync observations, not empty histograms.
				daemons[i] = startDaemon(t, fmt.Sprintf("copydetectd-w%d-%d", workers, i),
					"-workers", fmt.Sprint(workers),
					"-data-dir", filepath.Join(t.TempDir(), "data"))
				urls[i] = daemons[i].base
			}
			gate := startGateway(t, fmt.Sprintf("copygate-w%d", workers),
				"-backends", strings.Join(urls, ","), "-probe-every", "100ms")
			got := stream(t, httpClient, gate.base, ws)

			// The ring is a pure function of the backend list: recompute
			// placements to name the owner in failures and to pick the
			// kill victim below.
			ring, err := cluster.NewRing(urls)
			if err != nil {
				t.Fatal(err)
			}
			pairsTotal := 0
			for _, w := range ws {
				if !reflect.DeepEqual(got[w.name], want[w.name]) {
					t.Errorf("dataset %q (owner backend %d) diverges from the single daemon:\n got  %v\n want %v",
						w.name, ring.Owner(w.name), got[w.name], want[w.name])
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
			gc := &wireClient{t: t, http: httpClient, base: gate.base, name: ws[0].name}
			req, err := http.NewRequest(http.MethodGet, gc.url("/copies"), nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := httpClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			etag := resp.Header.Get("ETag")
			if etag == "" {
				t.Fatal("no ETag through the gateway")
			}
			req.Header.Set("If-None-Match", etag)
			resp, err = httpClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				t.Errorf("conditional GET through gateway: %d, want 304", resp.StatusCode)
			}

			if workers != 4 {
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
				status, raw, err := httpDo(httpClient, http.MethodPost,
					gate.base+"/v1/datasets/"+w.name+"/observations", appendBody{Observations: extra1})
				if err != nil || status != http.StatusAccepted {
					t.Fatalf("append wave 1 to %q: status=%d err=%v body=%s", w.name, status, err, raw)
				}
			}
			// Observability (ISSUE 6), mid-load with every backend alive:
			// one request's trace ID must appear in both the gateway's and
			// a backend's access log, and /metrics on all four processes
			// must expose the advertised families, every line parseable.
			tStatus, tHdr, tRaw, tErr := httpDoHdr(httpClient, http.MethodGet,
				gate.base+"/v1/datasets/"+ws[0].name+"/copies", nil)
			if tErr != nil || tStatus != http.StatusOK {
				t.Fatalf("traced read: status=%d err=%v body=%s", tStatus, tErr, tRaw)
			}
			trace := tHdr.Get("X-Copydetect-Trace")
			if len(trace) != 16 {
				t.Errorf("gateway returned trace ID %q, want a generated 16-hex ID", trace)
			}
			inLogs := func() bool {
				if !strings.Contains(gate.output.String(), "trace="+trace) {
					return false
				}
				for _, d := range daemons {
					if strings.Contains(d.output.String(), "trace="+trace) {
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

			gwSamples := scrapeMetrics(t, httpClient, gate.base)
			if v, ok := metricValue(gwSamples, "copygate_http_requests_total",
				map[string]string{"route": "/v1/datasets/{name}/observations", "code": "202"}); !ok || v < 1 {
				t.Errorf("gateway request counter for accepted appends = %v (present=%v), want >= 1", v, ok)
			}
			if v, ok := metricValue(gwSamples, "copygate_http_request_duration_seconds_count",
				map[string]string{"route": "/v1/datasets/{name}/observations"}); !ok || v < 1 {
				t.Errorf("gateway latency histogram for appends = %v (present=%v), want >= 1", v, ok)
			}
			if _, ok := metricValue(gwSamples, "copygate_mirror_queue_depth", nil); !ok {
				t.Error("gateway mirror queue depth missing from /metrics")
			}
			for i := range daemons {
				if v, ok := metricValue(gwSamples, "copygate_backend_healthy",
					map[string]string{"backend": urls[i]}); !ok || v != 1 {
					t.Errorf("copygate_backend_healthy{%s} = %v (present=%v), want 1", urls[i], v, ok)
				}
			}
			for i, d := range daemons {
				samples := scrapeMetrics(t, httpClient, d.base)
				if v, ok := metricValue(samples, "copydetectd_http_requests_total", nil); !ok || v < 1 {
					t.Errorf("backend %d request counter = %v (present=%v), want >= 1", i, v, ok)
				}
				if _, ok := metricValue(samples, "copydetectd_scheduler_queue_depth", nil); !ok {
					t.Errorf("backend %d scheduler queue depth missing from /metrics", i)
				}
				if v, ok := metricValue(samples, "copydetectd_wal_fsync_seconds_count", nil); !ok || v < 1 {
					t.Errorf("backend %d WAL fsync count = %v (present=%v), want >= 1 (durable daemon)", i, v, ok)
				}
				if v, ok := metricValue(samples, "copydetectd_rounds_total", nil); !ok || v < 1 {
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
			daemons[victim].kill()
			// ...wave 2 lands with the victim dead: zero 5xx, and requests
			// for the victim's datasets are answered by the replica, marked.
			for _, w := range ws {
				status, hdr, raw, err := httpDoHdr(httpClient, http.MethodPost,
					gate.base+"/v1/datasets/"+w.name+"/observations", appendBody{Observations: extra2})
				if err != nil || status != http.StatusAccepted {
					t.Errorf("append to %q with backend %d dead: status=%d err=%v body=%s, want 202 (zero 5xx)",
						w.name, victim, status, err, raw)
				}
				if ring.Owner(w.name) == victim && hdr.Get("X-Copydetect-Replica") != "true" {
					t.Errorf("failover append to %q not marked X-Copydetect-Replica", w.name)
				}
				status, hdr, raw, err = httpDoHdr(httpClient, http.MethodGet,
					gate.base+"/v1/datasets/"+w.name+"/copies", nil)
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
				status, raw, err := httpDo(httpClient, http.MethodPost,
					gate.base+"/v1/datasets/"+w.name+"/quiesce", nil)
				if err != nil || status != http.StatusOK {
					t.Errorf("quiesce of %q with backend %d dead: status=%d err=%v body=%s, want 200",
						w.name, victim, status, err, raw)
				}
			}
			// The gateway notices: /healthz degrades once probes eject the
			// dead backend, and the dataset list marks itself partial.
			waitHealthz(t, httpClient, gate.base, 10*time.Second, func(hz healthzView) bool {
				return hz.Status == "degraded" && !hz.Backends[victim].Healthy
			}, "ejection of the dead backend")
			status, raw, err := httpDo(httpClient, http.MethodGet, gate.base+"/v1/datasets", nil)
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
			daemons[victim] = startDaemonAt(t, fmt.Sprintf("copydetectd-w%d-%d-restarted", workers, victim),
				victimAddr, "-workers", fmt.Sprint(workers))
			waitHealthz(t, httpClient, gate.base, 30*time.Second, func(hz healthzView) bool {
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
				rc := &wireClient{t: t, http: httpClient, base: ref.URL, name: w.name}
				rc.must(http.MethodPost, "/observations", appendBody{Observations: extra1}, http.StatusAccepted)
				rc.must(http.MethodPost, "/observations", appendBody{Observations: extra2}, http.StatusAccepted)
				rc.must(http.MethodPost, "/quiesce", nil, http.StatusOK)
			}
			for _, w := range ws {
				rc := &wireClient{t: t, http: httpClient, base: ref.URL, name: w.name}
				gc := &wireClient{t: t, http: httpClient, base: gate.base, name: w.name}
				gc.must(http.MethodPost, "/quiesce", nil, http.StatusOK)
				got, wantViews := gc.published(), rc.published()
				if !reflect.DeepEqual(got, wantViews) {
					t.Errorf("dataset %q after kill+readmission diverges from the single daemon:\n got  %v\n want %v",
						w.name, got, wantViews)
				}
			}
			// And the recovered process itself holds its datasets again: a
			// read through the gateway is served without the replica marker,
			// and the daemon answers directly with the full stream.
			for _, w := range ws {
				if ring.Owner(w.name) != victim {
					continue
				}
				status, hdr, raw, err := httpDoHdr(httpClient, http.MethodGet,
					gate.base+"/v1/datasets/"+w.name, nil)
				if err != nil || status != http.StatusOK {
					t.Errorf("read of %q after readmission: status=%d err=%v body=%s", w.name, status, err, raw)
				}
				if hdr.Get("X-Copydetect-Replica") != "" {
					t.Errorf("read of %q still served by the replica after anti-entropy", w.name)
				}
				wantVersion := uint64(len(w.batches) + 3) // batches + truth + two extra waves
				status, raw, err = httpDo(httpClient, http.MethodGet, urls[victim]+"/v1/datasets/"+w.name, nil)
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

// scrapeMetrics GETs a process's /metrics via the shared scrape client
// and parses every exposition line — a malformed line anywhere fails
// the scrape.
func scrapeMetrics(t *testing.T, client *http.Client, base string) []telemetry.Sample {
	t.Helper()
	samples, err := telemetry.Scrape(client, base)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return samples
}

// metricValue finds the first sample matching name and the given label
// subset, summing nothing: vectors are matched per-child.
func metricValue(samples []telemetry.Sample, name string, labels map[string]string) (float64, bool) {
	return telemetry.Value(samples, name, labels)
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
		status, raw, err := httpDo(client, http.MethodGet, base+"/healthz", nil)
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
