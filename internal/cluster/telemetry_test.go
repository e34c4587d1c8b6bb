package cluster

import (
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
	mirrored []http.Header  // headers of sequenced mirror appends seen
	listed   map[string]int // answered GET /v1/datasets, by host
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
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Method == http.MethodGet && req.URL.Path == "/v1/datasets" {
		ht.mu.Lock()
		ht.listed[req.URL.Host]++
		ht.mu.Unlock()
	}
	return resp, err
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
		listed:   map[string]int{},
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

	// The startup audit lists both backends. Listed after the create, it
	// would find the hung replica behind and drain its queue under the
	// dataset's write lock, letting the over-high-water append through; so
	// wait until both have answered, and the audit sees an empty cluster.
	waitFor(t, "the startup audit to list both backends", func() bool {
		ht.mu.Lock()
		defer ht.mu.Unlock()
		return len(ht.listed) == 2
	})

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
