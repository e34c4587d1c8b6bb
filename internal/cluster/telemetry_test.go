package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
)

// hangTransport lets writes to one designated host block until the
// test releases them — a replica that accepts connections but does not
// answer, which is exactly the condition that grows a mirror queue.
// Probes and reads (GETs) pass through so the backend stays healthy.
type hangTransport struct {
	hangHost string
	release  chan struct{}

	mu       sync.Mutex
	mirrored []http.Header // headers of sequenced mirror appends seen
}

func (ht *hangTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get(server.SeqHeader) != "" {
		ht.mu.Lock()
		ht.mirrored = append(ht.mirrored, req.Header.Clone())
		ht.mu.Unlock()
	}
	if req.URL.Host == ht.hangHost &&
		(req.Method == http.MethodPut || req.Method == http.MethodPost) {
		select {
		case <-ht.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestMirrorQueueBackpressure drives a dataset's mirror queue to the
// high-water mark (the replica hangs, so jobs can only accumulate) and
// expects 429 + Retry-After from the gateway, recovery to 202 once the
// queue drains, the admission counter on /metrics, and the client's
// trace ID on the mirrored appends.
func TestMirrorQueueBackpressure(t *testing.T) {
	oldTimeout := jobTimeout
	jobTimeout = 2 * time.Second
	defer func() { jobTimeout = oldTimeout }()
	oldHW := mirrorHighWater
	mirrorHighWater = 2
	// Registered before the gateway's cleanups, so it runs after the
	// gateway and its server are closed — no handler still reads it.
	t.Cleanup(func() { mirrorHighWater = oldHW })

	var regs []*server.Registry
	var urls []string
	for i := 0; i < 2; i++ {
		reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(reg.Close)
		s := httptest.NewServer(server.NewHandler(reg))
		t.Cleanup(s.Close)
		regs = append(regs, reg)
		urls = append(urls, s.URL)
	}
	// A dataset owned by backend 0, so backend 1 is the hanging replica.
	// Resolved before New so the transport is never mutated while the
	// gateway's background goroutines are using it.
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("bp-%d", i)
		if ring.Owner(cand) == 0 {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no dataset name owned by backend 0")
	}
	ht := &hangTransport{
		hangHost: strings.TrimPrefix(urls[1], "http://"),
		release:  make(chan struct{}),
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(ht.release) }) }
	t.Cleanup(release) // a hung mirror must not wedge gateway Close

	gw, err := New(Config{
		Backends:    urls,
		Replication: 2,
		Transport:   ht,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gwServer := httptest.NewServer(gw)
	t.Cleanup(gwServer.Close)
	treg := telemetry.New()
	gw.RegisterMetrics(treg)

	base := gwServer.URL + "/v1/datasets/" + name

	// Create (mirror job 1 hangs in delivery), then one append (mirror
	// job 2 queues behind it): the queue is now at the high-water mark.
	resp, _ := do(t, http.MethodPut, base, nil, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	batch := map[string]any{"observations": []map[string]string{{"s": "s1", "d": "d1", "v": "v1"}}}
	hdr := http.Header{}
	hdr.Set(telemetry.TraceHeader, "cafebabecafebabe")
	resp, _ = do(t, http.MethodPost, base+"/observations", batch, hdr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first append status %d", resp.StatusCode)
	}

	// The next append finds queuedJobs at the high-water mark: refused,
	// with a Retry-After hint, and nothing applied on any member.
	resp, raw := do(t, http.MethodPost, base+"/observations", batch, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-high-water append status %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	var b strings.Builder
	if err := treg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	if !strings.Contains(scrape, "copygate_admission_rejections_total 1") {
		t.Errorf("admission rejection not counted:\n%s", scrape)
	}
	if !strings.Contains(scrape, "copygate_mirror_queue_depth 2") {
		t.Errorf("mirror queue depth not 2:\n%s", scrape)
	}

	// Drain: release the replica, wait for the queue to empty, and the
	// dataset accepts appends again.
	release()
	waitFor(t, "mirror queue to drain", func() bool {
		for _, ds := range gw.snapshotDS() {
			if atomic.LoadInt64(&ds.queuedJobs) != 0 {
				return false
			}
		}
		return true
	})
	resp, raw = do(t, http.MethodPost, base+"/observations", batch, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain append status %d, body %s", resp.StatusCode, raw)
	}

	// The mirrored append carried the client write's trace ID.
	waitFor(t, "a mirrored append to be recorded", func() bool {
		ht.mu.Lock()
		defer ht.mu.Unlock()
		return len(ht.mirrored) > 0
	})
	ht.mu.Lock()
	trace := ht.mirrored[0].Get(telemetry.TraceHeader)
	ht.mu.Unlock()
	if trace != "cafebabecafebabe" {
		t.Errorf("mirrored append trace = %q, want the client's trace ID", trace)
	}

	// Both members converge on every acknowledged append (2 applied).
	waitFor(t, "replica to hold both appends", func() bool {
		for i := range regs {
			inf, code := directInfo(t, urls[i], name)
			if code != http.StatusOK || inf.Version != 2 {
				return false
			}
		}
		return true
	})
}

// hangUpTransport passes every request through, but once a client's
// append (one without a sequence number: not a mirror) has been
// answered, it calls hangUp, which cancels that client's request, before
// the gateway sees the answer: a client that goes away after the member
// applied its write. Like a real transport it then fails a request whose
// context has ended.
type hangUpTransport struct{ hangUp context.CancelFunc }

func (ht *hangUpTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/observations") || req.Header.Get(server.SeqHeader) != "" {
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	ht.hangUp()
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, nil
}

// TestHungUpWriteIsMirrored: at R = 2, an append whose client hangs up
// after the acting member applied it is mirrored to the other member all
// the same, and the gateway records the request as 499 — in its access
// log and on /metrics — not as a 5xx.
func TestHungUpWriteIsMirrored(t *testing.T) {
	client, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	var urls []string
	for i := 0; i < 2; i++ {
		reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(reg.Close)
		s := httptest.NewServer(server.NewHandler(reg))
		t.Cleanup(s.Close)
		urls = append(urls, s.URL)
	}
	gw, err := New(Config{Backends: urls, Replication: 2, ProbeEvery: time.Hour, Transport: &hangUpTransport{hangUp}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	tel := telemetry.New()
	var accessLog bytes.Buffer
	h := telemetry.NewHTTPMetrics(tel, "copygate", log.New(&accessLog, "", 0)).Wrap(gw)

	const name = "hungup"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/datasets/"+name, nil))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	body, err := json.Marshal(smallBatch("h"))
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/"+name+"/observations", bytes.NewReader(body)).WithContext(client))
	if rec.Code != statusClientClosed {
		t.Errorf("append whose client hung up: status %d, want %d", rec.Code, statusClientClosed)
	}
	for _, url := range urls {
		waitFor(t, "the append on "+url, func() bool {
			inf, status := directInfo(t, url, name)
			return status == http.StatusOK && inf.Version == 1
		})
	}

	var exposition strings.Builder
	if err := tel.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if m := exposition.String(); !strings.Contains(m, `code="499"`) || strings.Contains(m, `code="5`) {
		t.Errorf("/metrics should count the hang-up as 499 and no request as 5xx:\n%s", m)
	}
	if l := accessLog.String(); !strings.Contains(l, "/observations 499 ") || strings.Contains(l, " 503 ") {
		t.Errorf("access log should record the append as 499:\n%s", l)
	}
}
