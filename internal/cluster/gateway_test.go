package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/server"
	"copydetect/internal/testkit"
)

// testCluster is three real in-process copydetectd handlers behind one
// gateway.
type testCluster struct {
	t        *testing.T
	gw       *Gateway
	gwServer *httptest.Server
	backends []*httptest.Server
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(reg.Close)
		s := httptest.NewServer(server.NewHandler(reg))
		t.Cleanup(s.Close)
		tc.backends = append(tc.backends, s)
		urls[i] = s.URL
	}
	cfg.Backends = urls
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	tc.gw = gw
	tc.gwServer = httptest.NewServer(gw)
	t.Cleanup(tc.gwServer.Close)
	return tc
}

// do runs one JSON request and returns the response's status and
// headers, and its raw body.
func do(t *testing.T, method, url string, body any, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	status, respHdr, raw, err := testkit.Do(http.DefaultClient, method, url, body, hdr)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Response{StatusCode: status, Header: respHdr}, raw
}

type obsBatch struct {
	Observations []map[string]string `json:"observations"`
}

func smallBatch(prefix string) obsBatch {
	var b obsBatch
	for s := 0; s < 3; s++ {
		for d := 0; d < 2; d++ {
			b.Observations = append(b.Observations, map[string]string{
				"s": fmt.Sprintf("%s-src%d", prefix, s),
				"d": fmt.Sprintf("item%d", d),
				"v": fmt.Sprintf("val%d", s%2),
			})
		}
	}
	return b
}

func TestProxyRoutesToRingOwner(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, name := range names {
		resp, body := do(t, http.MethodPut, tc.gwServer.URL+"/v1/datasets/"+name, nil, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, resp.StatusCode, body)
		}
	}
	// Every dataset must live on exactly its ring owner and nowhere else.
	for _, name := range names {
		owner := tc.gw.Ring().Owner(name)
		for i, b := range tc.backends {
			resp, _ := do(t, http.MethodGet, b.URL+"/v1/datasets/"+name, nil, nil)
			want := http.StatusNotFound
			if i == owner {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Errorf("dataset %q on backend %d: status %d, want %d (owner %d)",
					name, i, resp.StatusCode, want, owner)
			}
		}
	}
	// Errors proxy through too: duplicate create is the owner's 409.
	resp, _ := do(t, http.MethodPut, tc.gwServer.URL+"/v1/datasets/alpha", nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: %d, want 409", resp.StatusCode)
	}
}

func TestETagPassthroughAndConditionalGet(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	base := tc.gwServer.URL + "/v1/datasets/etagged"
	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("e"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/quiesce", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("quiesce: %d %s", resp.StatusCode, body)
	}
	resp, body := do(t, http.MethodGet, base+"/copies", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("copies: %d %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag through the gateway")
	}
	resp, _ = do(t, http.MethodGet, base+"/copies", nil, http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", resp.StatusCode)
	}
	// The backend's own ETag must be what the gateway relayed.
	owner := tc.gw.Ring().Owner("etagged")
	direct, _ := do(t, http.MethodGet, tc.backends[owner].URL+"/v1/datasets/etagged/copies", nil, nil)
	if direct.Header.Get("ETag") != etag {
		t.Errorf("gateway ETag %q != backend ETag %q", etag, direct.Header.Get("ETag"))
	}
}

func TestListMergesAcrossBackendsSorted(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	names := []string{"zz", "mm", "aa", "kk", "qq"}
	for _, name := range names {
		if resp, body := do(t, http.MethodPut, tc.gwServer.URL+"/v1/datasets/"+name, nil, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, resp.StatusCode, body)
		}
	}
	resp, raw := do(t, http.MethodGet, tc.gwServer.URL+"/v1/datasets", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, raw)
	}
	var lr listResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Partial {
		t.Error("healthy cluster reported a partial list")
	}
	got := make([]string, len(lr.Datasets))
	for i, inf := range lr.Datasets {
		got[i] = inf.Name
	}
	want := []string{"aa", "kk", "mm", "qq", "zz"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("list = %v, want %v", got, want)
	}

	// Take one backend down: the list degrades to the reachable subset
	// and says so.
	tc.backends[0].Close()
	resp, raw = do(t, http.MethodGet, tc.gwServer.URL+"/v1/datasets", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded list: %d %s", resp.StatusCode, raw)
	}
	lr = listResponse{}
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Partial {
		t.Error("list with a dead backend not marked partial")
	}
	for _, inf := range lr.Datasets {
		if tc.gw.Ring().Owner(inf.Name) == 0 {
			t.Errorf("dataset %q listed although its owner is down", inf.Name)
		}
	}
}

func TestEjectionAndReadmission(t *testing.T) {
	var failing atomic.Bool
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits.Add(1)
		if failing.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	}))
	defer flaky.Close()

	gw, err := New(Config{
		Backends:   []string{flaky.URL},
		ProbeEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwServer := httptest.NewServer(gw)
	defer gwServer.Close()

	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if gw.Status()[0].Healthy == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("backend never became healthy=%v: %+v", want, gw.Status()[0])
	}

	waitHealthy(true)
	failing.Store(true)
	waitHealthy(false)

	// Ejected: requests are refused at the gateway without touching the
	// backend (probes still hit it, so freeze the counter around the call).
	resp, body := do(t, http.MethodGet, gwServer.URL+"/v1/datasets/x/copies", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request to ejected backend: %d %s, want 503", resp.StatusCode, body)
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "unavailable") {
		t.Errorf("503 body %q not in the daemon error shape", body)
	}
	if s := gw.healthzStatus(); s != "degraded" {
		t.Errorf("healthz status %q with an ejected backend, want degraded", s)
	}

	failing.Store(false)
	waitHealthy(true)
	if s := gw.healthzStatus(); s != "ok" {
		t.Errorf("healthz status %q after readmission, want ok", s)
	}
}

// healthzStatus fetches the gateway's own health body via the handler.
func (g *Gateway) healthzStatus() string {
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		return "unparseable: " + err.Error()
	}
	return hr.Status
}

// flakyTransport fails the first n round trips with a transport error,
// then delegates.
type flakyTransport struct {
	remaining atomic.Int64
	attempts  atomic.Int64
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.attempts.Add(1)
	if f.remaining.Add(-1) >= 0 {
		return nil, fmt.Errorf("injected transport failure")
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestIdempotentRetriesOnly(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	backend := httptest.NewServer(server.NewHandler(reg))
	defer backend.Close()
	if _, err := reg.Create("r", server.DatasetConfig{}); err != nil {
		t.Fatal(err)
	}

	ft := &flakyTransport{}
	gw, err := New(Config{
		Backends:   []string{backend.URL},
		ProbeEvery: time.Hour,
		Transport:  ft,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwServer := httptest.NewServer(gw)
	defer gwServer.Close()

	// GET: one failure, then success on the retry.
	ft.remaining.Store(1)
	ft.attempts.Store(0)
	resp, body := do(t, http.MethodGet, gwServer.URL+"/v1/datasets/r", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after one transport failure: %d %s, want 200 via retry", resp.StatusCode, body)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("GET used %d attempts, want 2", got)
	}

	// GET: failures exhaust the retry budget (1 + 2 retries) → 503, and
	// the whole logical request counts as ONE failure — with ejectAfter
	// 2, a single retried GET must not eject the backend by itself.
	ft.remaining.Store(100)
	ft.attempts.Store(0)
	resp, _ = do(t, http.MethodGet, gwServer.URL+"/v1/datasets/r", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET with dead transport: %d, want 503", resp.StatusCode)
	}
	if got := ft.attempts.Load(); got != 3 {
		t.Errorf("GET used %d attempts, want 3", got)
	}
	if st := gw.Status()[0]; !st.Healthy || st.ConsecutiveFailures != 1 {
		t.Errorf("after one exhausted GET: %+v, want healthy with 1 failure", st)
	}

	// POST (append) is not idempotent at the version level: one failure,
	// no retry, 503 — even though a retry would have succeeded.
	ft.remaining.Store(1)
	ft.attempts.Store(0)
	resp, _ = do(t, http.MethodPost, gwServer.URL+"/v1/datasets/r/observations", smallBatch("r"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST with one transport failure: %d, want 503 (no retry)", resp.StatusCode)
	}
	if got := ft.attempts.Load(); got != 1 {
		t.Errorf("POST used %d attempts, want exactly 1", got)
	}
	// With one member there is nowhere to fail over to.
	if got := gw.writeFailovers.Load(); got != 0 {
		t.Errorf("write failovers after a failed write at replication 1: %d, want 0", got)
	}
	// That second failed logical request reaches the ejection threshold.
	if st := gw.Status()[0]; st.Healthy {
		t.Errorf("after two failed requests: %+v, want ejected", st)
	}
}

// TestListTimeoutOnStalledBackend: the list fan-out must not hang on a
// backend that accepts connections but never answers (SIGSTOP'd,
// blackholed) — unlike the proxy path, where a quiesce may legitimately
// block. The fan-out is bounded relative to the probe budget and the
// response degrades to the reachable subset, marked partial.
func TestListTimeoutOnStalledBackend(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	fast := httptest.NewServer(server.NewHandler(reg))
	defer fast.Close()
	if _, err := reg.Create("fastds", server.DatasetConfig{}); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		<-block
	}))
	defer stalled.Close()
	defer unblock() // LIFO: release the handler before Close waits on it

	gw, err := New(Config{
		Backends:   []string{fast.URL, stalled.URL},
		ProbeEvery: 100 * time.Millisecond, // probes take ≤ 50ms; listTimeout floors at 1s
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	start := time.Now()
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets", nil))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("list took %v against a stalled backend", elapsed)
	}
	var lr listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatalf("list body %q: %v", rec.Body.String(), err)
	}
	if !lr.Partial || len(lr.Datasets) != 1 || lr.Datasets[0].Name != "fastds" {
		t.Errorf("degraded list = %+v, want partial with only fastds", lr)
	}
}

// TestClientCancelDoesNotEjectBackend: a transport error caused by the
// *client's* own cancellation must not count against the backend —
// otherwise impatient clients (canceled quiesces, list timeouts) could
// eject a perfectly healthy backend, and a canceled list fan-out would
// tick a failure on every backend at once. Nor is the proxied read a
// server error: it is answered statusClientClosed.
func TestClientCancelDoesNotEjectBackend(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	backend := httptest.NewServer(server.NewHandler(reg))
	defer backend.Close()

	gw, err := New(Config{
		Backends:   []string{backend.URL},
		ProbeEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{"/v1/datasets/x/copies", "/v1/datasets"} {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		if st := gw.Status()[0]; !st.Healthy || st.ConsecutiveFailures != 0 {
			t.Errorf("canceled GET %s counted against the backend: %+v", path, st)
		}
		if path != "/v1/datasets" && rec.Code != statusClientClosed {
			t.Errorf("canceled GET %s answered %d, want %d", path, rec.Code, statusClientClosed)
		}
	}
}

func TestGatewayPathAndMethodErrors(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	for _, tt := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/nope", http.StatusNotFound},
		{http.MethodGet, "/v1/datasets/", http.StatusNotFound},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/datasets", http.StatusMethodNotAllowed},
	} {
		resp, _ := do(t, tt.method, tc.gwServer.URL+tt.path, nil, nil)
		if resp.StatusCode != tt.want {
			t.Errorf("%s %s = %d, want %d", tt.method, tt.path, resp.StatusCode, tt.want)
		}
	}
}

// TestHungOwnerWriteTimesOut: at replication 1 a write takes the same
// path as a replicated one, so an owner that accepts the request and
// never answers costs the client writeTimeout and then a 503, instead
// of holding it for as long as it is willing to wait.
func TestHungOwnerWriteTimesOut(t *testing.T) {
	oldTimeout := writeTimeout
	writeTimeout = 100 * time.Millisecond
	// Registered first, so it runs after the gateway's server is closed.
	t.Cleanup(func() { writeTimeout = oldTimeout })

	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) }) // LIFO: before hung.Close waits on the handler

	gw, err := New(Config{Backends: []string{hung.URL}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gwServer := httptest.NewServer(gw)
	t.Cleanup(gwServer.Close)

	client := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	status, _, body, err := testkit.Do(client, http.MethodPost,
		gwServer.URL+"/v1/datasets/hung/observations", smallBatch("h"), nil)
	if err != nil {
		t.Fatalf("write to a hung owner: %v after %v, want a 503 once writeTimeout passes", err, time.Since(start))
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("write to a hung owner: %d %s, want 503", status, body)
	}
	if got := gw.writeFailovers.Load(); got != 0 {
		t.Errorf("write failovers after a timed-out write: %d, want 0", got)
	}
}
