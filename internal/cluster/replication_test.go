package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/server"
)

// blockableTransport simulates a dead backend at the transport level:
// requests to a blocked host fail the way connections to a SIGKILLed
// process do, while the process under the httptest server stays alive
// so the test can "restart" it by unblocking.
type blockableTransport struct {
	blocked atomic.Value // map[string]bool by host:port; replaced wholesale
}

func newBlockableTransport() *blockableTransport {
	bt := &blockableTransport{}
	bt.blocked.Store(map[string]bool{})
	return bt
}

func (bt *blockableTransport) setBlocked(host string, v bool) {
	old := bt.blocked.Load().(map[string]bool)
	next := make(map[string]bool, len(old)+1)
	for k, b := range old {
		next[k] = b
	}
	next[host] = v
	bt.blocked.Store(next)
}

func (bt *blockableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if bt.blocked.Load().(map[string]bool)[req.URL.Host] {
		return nil, fmt.Errorf("dial tcp %s: connect: connection refused (injected)", req.URL.Host)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// replCluster is n real in-process daemons behind a replication-enabled
// gateway whose transport can cut off individual backends.
type replCluster struct {
	t         *testing.T
	gw        *Gateway
	gwServer  *httptest.Server
	regs      []*server.Registry
	backends  []*httptest.Server
	hosts     []string
	transport *blockableTransport
}

func newReplCluster(t *testing.T, n int, cfg Config) *replCluster {
	t.Helper()
	rc := &replCluster{t: t, transport: newBlockableTransport()}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(reg.Close)
		s := httptest.NewServer(server.NewHandler(reg))
		t.Cleanup(s.Close)
		rc.regs = append(rc.regs, reg)
		rc.backends = append(rc.backends, s)
		rc.hosts = append(rc.hosts, strings.TrimPrefix(s.URL, "http://"))
		urls[i] = s.URL
	}
	cfg.Backends = urls
	cfg.Transport = rc.transport
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	rc.gw = gw
	rc.gwServer = httptest.NewServer(gw)
	t.Cleanup(rc.gwServer.Close)
	return rc
}

// nameWithPrimary finds a dataset name whose replica set starts at
// backend want (the ring is a pure function of the name, so this is
// just a search).
func (rc *replCluster) nameWithPrimary(want int) string {
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("repl-%d", i)
		if rc.gw.Ring().Owner(name) == want {
			return name
		}
	}
	rc.t.Fatalf("no dataset name with primary %d found", want)
	return ""
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

type infoBody struct {
	Name         string `json:"name"`
	Version      uint64 `json:"version"`
	Observations int    `json:"observations"`
}

func directInfo(t *testing.T, base, name string) (infoBody, int) {
	t.Helper()
	resp, raw := do(t, http.MethodGet, base+"/v1/datasets/"+name, nil, nil)
	var inf infoBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &inf); err != nil {
			t.Fatalf("info body %q: %v", raw, err)
		}
	}
	return inf, resp.StatusCode
}

// TestReplicatedWritesLandOnAllMembers: with R=2 every write a client
// gets acknowledged must end up on both members of the dataset's
// replica set — and on no other backend.
func TestReplicatedWritesLandOnAllMembers(t *testing.T) {
	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 3; i++ {
		if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch(fmt.Sprintf("b%d", i)), nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("append %d: %d %s", i, resp.StatusCode, body)
		}
	}

	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d to hold version 3", m), func() bool {
			inf, status := directInfo(t, rc.backends[m].URL, name)
			return status == http.StatusOK && inf.Version == 3
		})
	}
	for i := range rc.backends {
		if i == members[0] || i == members[1] {
			continue
		}
		if _, status := directInfo(t, rc.backends[i].URL, name); status != http.StatusNotFound {
			t.Errorf("non-member backend %d holds dataset %q (status %d)", i, name, status)
		}
	}

	// The members hold identical streams: same version, same cells.
	a, _ := directInfo(t, rc.backends[members[0]].URL, name)
	b, _ := directInfo(t, rc.backends[members[1]].URL, name)
	if a.Version != b.Version || a.Observations != b.Observations {
		t.Errorf("members diverge: primary %+v, replica %+v", a, b)
	}

	// The gateway's list must not double-count the replicated dataset.
	resp, raw := do(t, http.MethodGet, rc.gwServer.URL+"/v1/datasets", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, raw)
	}
	var lr listResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Partial || len(lr.Datasets) != 1 || lr.Datasets[0].Name != name {
		t.Errorf("replicated list = %+v, want exactly one entry for %q", lr, name)
	}
}

// TestFailoverServesAndAcceptsWithDeadPrimary: killing the primary must
// not surface a single 5xx — reads and writes fail over to the replica
// within the request, and failover responses carry the replica marker.
func TestFailoverServesAndAcceptsWithDeadPrimary(t *testing.T) {
	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(1)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("pre"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica to mirror the first batch", func() bool {
		inf, status := directInfo(t, rc.backends[members[1]].URL, name)
		return status == http.StatusOK && inf.Version == 1
	})

	rc.transport.setBlocked(rc.hosts[members[0]], true)

	// Appends keep getting acknowledged, served by the replica.
	resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("post"), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append with dead primary: %d %s, want 202", resp.StatusCode, body)
	}
	if resp.Header.Get(server.ReplicaHeader) != "true" {
		t.Errorf("failover append response missing %s header", server.ReplicaHeader)
	}
	if got := rc.gw.writeFailovers.Load(); got != 1 {
		t.Errorf("write failovers after one dead-primary append: %d, want 1", got)
	}
	// Reads too — quiesce first so the published round is current.
	if resp, body := do(t, http.MethodPost, base+"/quiesce", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("quiesce with dead primary: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, base+"/copies", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read with dead primary: %d %s, want 200", resp.StatusCode, body)
	}
	if resp.Header.Get(server.ReplicaHeader) != "true" {
		t.Errorf("failover read response missing %s header", server.ReplicaHeader)
	}

	// The replica holds the full stream: both batches, exactly once.
	inf, status := directInfo(t, rc.backends[members[1]].URL, name)
	if status != http.StatusOK || inf.Version != 2 || inf.Observations != 12 {
		t.Errorf("replica after failover: status %d %+v, want version 2 with 12 observations", status, inf)
	}

	// The dead primary is known stale (it missed the failover batch).
	waitFor(t, "primary to be marked stale", func() bool {
		return rc.gw.Status()[members[0]].StaleDatasets == 1
	})
}

// TestAntiEntropyCatchUpOnReadmission: a backend that missed writes
// while it was down must be caught up from its peer once probes readmit
// it — and only then serve again, without the replica marker.
func TestAntiEntropyCatchUpOnReadmission(t *testing.T) {
	rc := newReplCluster(t, 3, Config{
		Replication:  2,
		ProbeEvery:   5 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
	})
	name := rc.nameWithPrimary(2)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("pre"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}

	rc.transport.setBlocked(rc.hosts[members[0]], true)
	waitFor(t, "primary ejection", func() bool { return !rc.gw.Status()[members[0]].Healthy })

	// Two more acknowledged batches the primary never sees.
	for i := 0; i < 2; i++ {
		if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch(fmt.Sprintf("down%d", i)), nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("append %d with dead primary: %d %s", i, resp.StatusCode, body)
		}
	}

	rc.transport.setBlocked(rc.hosts[members[0]], false)
	waitFor(t, "primary readmission", func() bool { return rc.gw.Status()[members[0]].Healthy })
	waitFor(t, "anti-entropy to clear the stale mark", func() bool {
		return rc.gw.Status()[members[0]].StaleDatasets == 0
	})

	// The recovered primary holds the full stream again...
	inf, status := directInfo(t, rc.backends[members[0]].URL, name)
	if status != http.StatusOK || inf.Version != 3 || inf.Observations != 18 {
		t.Fatalf("recovered primary: status %d %+v, want version 3 with 18 observations", status, inf)
	}
	// ...and serves: reads come back without the replica marker.
	waitFor(t, "primary to serve reads again", func() bool {
		resp, _ := do(t, http.MethodGet, base, nil, nil)
		return resp.StatusCode == http.StatusOK && resp.Header.Get(server.ReplicaHeader) == ""
	})

	// New writes reach both members again.
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("after"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append after readmission: %d %s", resp.StatusCode, body)
	}
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d to hold version 4", m), func() bool {
			inf, status := directInfo(t, rc.backends[m].URL, name)
			return status == http.StatusOK && inf.Version == 4
		})
	}
}

// TestDeleteReplicates: a delete acknowledged by the acting primary
// must remove the dataset from every member.
func TestDeleteReplicates(t *testing.T) {
	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica create", func() bool {
		_, status := directInfo(t, rc.backends[members[1]].URL, name)
		return status == http.StatusOK
	})
	if resp, body := do(t, http.MethodDelete, base, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d to drop the dataset", m), func() bool {
			_, status := directInfo(t, rc.backends[m].URL, name)
			return status == http.StatusNotFound
		})
	}
}

// dyingBackend wraps a real daemon handler but kills the connection
// mid-request-body on observation appends while armed — the worst-case
// failure for a proxy: the backend consumed part of the body and its
// fate is unknown. It counts unsequenced observation POSTs separately:
// an unsequenced resend could double-append, while a sequenced mirror
// delivery is idempotent by design and therefore allowed.
type dyingBackend struct {
	inner http.Handler
	armed atomic.Bool
	posts atomic.Int64 // unsequenced observation POSTs (no X-Copydetect-Seq)
}

func (d *dyingBackend) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/observations") {
		if req.Header.Get(server.SeqHeader) == "" {
			d.posts.Add(1)
		}
		if d.armed.Load() {
			// Read part of the body, then kill the TCP connection so the
			// client sees a transport error after partially streaming.
			buf := make([]byte, 16)
			_, _ = req.Body.Read(buf)
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetLinger(0) // RST, not FIN: an honest crash
			}
			conn.Close()
			return
		}
	}
	d.inner.ServeHTTP(w, req)
}

// TestAppendNotRetriedAgainstBackendThatDiedMidBody is the regression
// test for the proxy retry audit: a write whose body was partially
// streamed to a backend that then died must never be re-sent to that
// backend (it might have applied the batch — a resend could append it
// twice). Without replication the client gets a clean 503 after exactly
// one attempt; with replication the write fails over to the replica and
// the batch lands exactly once cluster-wide.
func TestAppendNotRetriedAgainstBackendThatDiedMidBody(t *testing.T) {
	for _, replication := range []int{1, 2} {
		replication := replication
		t.Run(fmt.Sprintf("replicas=%d", replication), func(t *testing.T) {
			var dying *dyingBackend
			urls := make([]string, 3)
			regs := make([]*server.Registry, 3)
			servers := make([]*httptest.Server, 3)
			for i := 0; i < 3; i++ {
				regs[i] = server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
				t.Cleanup(regs[i].Close)
				var h http.Handler = server.NewHandler(regs[i])
				if i == 0 {
					dying = &dyingBackend{inner: h}
					h = dying
				}
				servers[i] = httptest.NewServer(h)
				t.Cleanup(servers[i].Close)
				urls[i] = servers[i].URL
			}
			gw, err := New(Config{
				Backends:    urls,
				Replication: replication,
				ProbeEvery:  time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			gwServer := httptest.NewServer(gw)
			defer gwServer.Close()

			// A dataset whose primary is the dying backend.
			name := ""
			for i := 0; i < 10000 && name == ""; i++ {
				cand := fmt.Sprintf("midbody-%d", i)
				if gw.Ring().Owner(cand) == 0 {
					name = cand
				}
			}
			base := gwServer.URL + "/v1/datasets/" + name
			if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
				t.Fatalf("create: %d %s", resp.StatusCode, body)
			}

			dying.armed.Store(true)
			dying.posts.Store(0)
			resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("mid"), nil)
			if got := dying.posts.Load(); got != 1 {
				t.Errorf("dying backend saw %d unsequenced observation POSTs, want exactly 1 (no resend of a consumed body; sequenced mirrors are idempotent and allowed)", got)
			}
			members := gw.Ring().ReplicaSet(name, replication)
			if replication == 1 {
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("append with dying owner, no replication: %d %s, want 503", resp.StatusCode, body)
				}
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("append with dying primary, R=2: %d %s, want 202 via failover", resp.StatusCode, body)
			}
			if resp.Header.Get(server.ReplicaHeader) != "true" {
				t.Errorf("failover append missing %s header", server.ReplicaHeader)
			}
			// Exactly once cluster-wide: the replica holds the batch, the
			// dying backend (which never applied it) holds only the create.
			inf, status := directInfo(t, servers[members[1]].URL, name)
			if status != http.StatusOK || inf.Version != 1 || inf.Observations != 6 {
				t.Errorf("replica after mid-body failover: status %d %+v, want version 1 with 6 observations", status, inf)
			}
		})
	}
}

// TestRetriedGETDoesNotReuseConsumedBody: an idempotent GET that
// carries a body (legal, if unusual) and fails on the first transport
// attempt must succeed on the retry — the gateway drops the body rather
// than re-reading a consumed stream.
func TestRetriedGETDoesNotReuseConsumedBody(t *testing.T) {
	reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	backend := httptest.NewServer(server.NewHandler(reg))
	defer backend.Close()
	if _, err := reg.Create("g", server.DatasetConfig{}); err != nil {
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

	ft.remaining.Store(1)
	ft.attempts.Store(0)
	resp, body := do(t, http.MethodGet, gwServer.URL+"/v1/datasets/g", map[string]string{"ignored": "body"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET with body after one transport failure: %d %s, want 200 via retry", resp.StatusCode, body)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("GET used %d attempts, want 2", got)
	}
}

// TestIdleReplicationStateRetires: per-dataset replication state (and
// its worker goroutine) must not accumulate forever — once a dataset
// has been idle with no queued mirrors and no stale member, the state
// retires, and a later write transparently recreates it.
func TestIdleReplicationStateRetires(t *testing.T) {
	oldIdle := dsIdleRetire
	dsIdleRetire = 20 * time.Millisecond
	// Registered before the cluster's cleanups, so it runs after
	// gw.Close — no worker is still reading the variable.
	t.Cleanup(func() { dsIdleRetire = oldIdle })

	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("idle"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	if rc.gw.lookupDS(name) == nil {
		t.Fatal("no replication state after a write")
	}
	waitFor(t, "idle state to retire", func() bool {
		return rc.gw.lookupDS(name) == nil
	})

	// A later write recreates the state and still replicates.
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("again"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append after retirement: %d %s", resp.StatusCode, body)
	}
	if rc.gw.lookupDS(name) == nil {
		t.Fatal("replication state not recreated by a post-retirement write")
	}
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d to hold version 2", m), func() bool {
			inf, status := directInfo(t, rc.backends[m].URL, name)
			return status == http.StatusOK && inf.Version == 2
		})
	}
}

// TestStaleMemberBlocksRetirement: a stale flag is an obligation — the
// state must stay (and keep re-arming anti-entropy) until the member
// is healed, no matter how long the dataset sits idle.
func TestStaleMemberBlocksRetirement(t *testing.T) {
	oldIdle := dsIdleRetire
	dsIdleRetire = 20 * time.Millisecond
	// Registered before the cluster's cleanups, so it runs after
	// gw.Close — no worker is still reading the variable.
	t.Cleanup(func() { dsIdleRetire = oldIdle })

	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	rc.transport.setBlocked(rc.hosts[members[1]], true)
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("s"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica to be marked stale", func() bool {
		return rc.gw.Status()[members[1]].StaleDatasets == 1
	})
	// Idle far past the retirement threshold: the obligation pins it.
	time.Sleep(10 * dsIdleRetire)
	if rc.gw.lookupDS(name) == nil {
		t.Fatal("state with a stale member retired; the obligation was forgotten")
	}
}

// TestAntiEntropyPropagatesDeletion: a member that missed a delete is
// healed by deleting its copy — the serving peer's export answers 404 —
// never by resurrecting the dataset from it.
func TestAntiEntropyPropagatesDeletion(t *testing.T) {
	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name

	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("del"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica to mirror the append", func() bool {
		inf, status := directInfo(t, rc.backends[members[1]].URL, name)
		return status == http.StatusOK && inf.Version == 1
	})

	// The replica misses the delete: its mirror fails, it goes stale.
	rc.transport.setBlocked(rc.hosts[members[1]], true)
	if resp, body := do(t, http.MethodDelete, base, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica to be marked stale", func() bool {
		return rc.gw.Status()[members[1]].StaleDatasets == 1
	})
	if _, status := directInfo(t, rc.backends[members[1]].URL, name); status != http.StatusOK {
		t.Fatalf("replica lost the dataset while cut off: status %d", status)
	}

	// Back in reach: each re-arm (a healthy probe's heartbeat) retries
	// the reconcile until the replica's copy is gone.
	rc.transport.setBlocked(rc.hosts[members[1]], false)
	waitFor(t, "anti-entropy to delete the replica's copy", func() bool {
		rc.gw.triggerReconciles(members[1])
		_, status := directInfo(t, rc.backends[members[1]].URL, name)
		return status == http.StatusNotFound && rc.gw.Status()[members[1]].StaleDatasets == 0
	})
	for _, m := range members {
		if _, status := directInfo(t, rc.backends[m].URL, name); status != http.StatusNotFound {
			t.Errorf("member %d holds the deleted dataset (status %d)", m, status)
		}
	}
}

// statusBackend answers every write with one fixed status (an append's
// body acknowledging version 1) and records the writes it receives; a
// list is empty and anything else is 200.
type statusBackend struct {
	status int
	mu     sync.Mutex
	writes []string // "METHOD path seq"
}

func (sb *statusBackend) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.Method == http.MethodGet && req.URL.Path == "/v1/datasets":
		fmt.Fprint(w, `{"datasets":[]}`)
	case req.Method == http.MethodGet || strings.HasSuffix(req.URL.Path, "/quiesce"):
		fmt.Fprint(w, `{}`)
	default:
		sb.mu.Lock()
		sb.writes = append(sb.writes, req.Method+" "+req.URL.Path+" "+req.Header.Get(server.SeqHeader))
		sb.mu.Unlock()
		w.WriteHeader(sb.status)
		fmt.Fprint(w, `{"version":1}`)
	}
}

// TestDeliveryRule drives the one "did this write land?" rule through
// the gateway: a write whose status on the acting member means it landed
// is mirrored to the other member (an append under its sequence number),
// one whose status means it did not is not, and a mirror answered with
// the same status leaves the member current.
func TestDeliveryRule(t *testing.T) {
	for _, tt := range []struct {
		method, op string
		status     int
		want       bool
	}{
		{http.MethodPut, "", http.StatusCreated, true},
		{http.MethodPut, "", http.StatusConflict, true},
		{http.MethodPut, "", http.StatusBadRequest, false},
		{http.MethodDelete, "", http.StatusOK, true},
		{http.MethodDelete, "", http.StatusNotFound, true},
		{http.MethodDelete, "", http.StatusInternalServerError, false},
		{http.MethodPost, "/import", http.StatusOK, true},
		{http.MethodPost, "/import", http.StatusCreated, false},
		{http.MethodPost, "/import", http.StatusBadRequest, false},
		{http.MethodPost, "/observations", http.StatusAccepted, true},
		{http.MethodPost, "/observations", http.StatusOK, false},
		{http.MethodPost, "/observations", http.StatusConflict, false},
		{http.MethodPost, "/copies", http.StatusOK, false},
	} {
		t.Run(fmt.Sprintf("%s%s_%d", tt.method, strings.ReplaceAll(tt.op, "/", "_"), tt.status), func(t *testing.T) {
			sbs := []*statusBackend{{status: tt.status}, {status: tt.status}}
			urls := make([]string, len(sbs))
			for i, sb := range sbs {
				s := httptest.NewServer(sb)
				t.Cleanup(s.Close)
				urls[i] = s.URL
			}
			gw, err := New(Config{Backends: urls, Replication: 2, ProbeEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			gwServer := httptest.NewServer(gw)
			t.Cleanup(gwServer.Close)

			base := gwServer.URL + "/v1/datasets/d"
			if resp, body := do(t, tt.method, base+tt.op, nil, nil); resp.StatusCode != tt.status {
				t.Fatalf("write relayed %d %s, want %d", resp.StatusCode, body, tt.status)
			}
			// A quiesce drains the dataset's mirror queue before it answers.
			if resp, body := do(t, http.MethodPost, base+"/quiesce", nil, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("quiesce: %d %s", resp.StatusCode, body)
			}
			members := gw.Ring().ReplicaSet("d", 2)
			replica := sbs[members[1]]
			replica.mu.Lock()
			writes := replica.writes
			replica.mu.Unlock()
			seq := ""
			if tt.op == "/observations" {
				seq = "1"
			}
			want := []string{tt.method + " /v1/datasets/d" + tt.op + " " + seq}
			if !tt.want {
				want = nil
			}
			if fmt.Sprint(writes) != fmt.Sprint(want) {
				t.Errorf("replica received %q, want %q", writes, want)
			}
			if st := gw.Status()[members[1]]; st.StaleDatasets != 0 {
				t.Errorf("replica marked stale: %+v", st)
			}
		})
	}
}

// truncatingTransport breaks off the response body of every client
// append (an unsequenced POST …/observations) sent to host: the member
// applies the batch, answers 202, and dies mid-body. It also counts the
// dataset lists it carried.
type truncatingTransport struct {
	host  atomic.Value // string
	lists atomic.Int64
}

func (tt *truncatingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Method == http.MethodGet && req.URL.Path == "/v1/datasets" {
		tt.lists.Add(1)
	}
	if err == nil && req.URL.Host == tt.host.Load() && req.Method == http.MethodPost &&
		strings.HasSuffix(req.URL.Path, "/observations") && req.Header.Get(server.SeqHeader) == "" {
		resp.Body.Close()
		resp.Body = io.NopCloser(io.MultiReader(strings.NewReader(`{"vers`), iotest.ErrReader(io.ErrUnexpectedEOF)))
	}
	return resp, err
}

// TestMidBodyWriteFailuresEject: a member whose every write response
// breaks off after the headers has failed every write, and is ejected
// after ejectAfter of them. Counting the headers as a success first would
// reset the failure streak each time and keep it healthy forever.
func TestMidBodyWriteFailuresEject(t *testing.T) {
	tt := &truncatingTransport{}
	tt.host.Store("")
	tc := newTestCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour, Transport: tt})
	// The startup audit's list of member 0 counts as a success. Landing
	// between the two writes, it would reset their failure streak; so
	// wait until it has listed every backend.
	waitFor(t, "the startup audit to list every backend", func() bool { return tt.lists.Load() == 3 })
	name := ""
	for i := 0; i < 10000 && name == ""; i++ {
		if cand := fmt.Sprintf("trunc-%d", i); tc.gw.Ring().Owner(cand) == 0 {
			name = cand
		}
	}
	base := tc.gwServer.URL + "/v1/datasets/" + name
	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	tt.host.Store(strings.TrimPrefix(tc.backends[0].URL, "http://"))
	for i := 0; i < ejectAfter; i++ {
		if st := tc.gw.Status()[0]; !st.Healthy {
			t.Fatalf("ejected after %d writes, before ejectAfter: %+v", i, st)
		}
		resp, body := do(t, http.MethodPost, base+"/observations", smallBatch(fmt.Sprintf("t%d", i)), nil)
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get(server.ReplicaHeader) != "true" {
			t.Fatalf("append %d: %d %s, want 202 from the replica", i, resp.StatusCode, body)
		}
	}
	if st := tc.gw.Status()[0]; st.Healthy || st.ConsecutiveFailures != ejectAfter {
		t.Errorf("after %d writes broken off mid-body: %+v, want ejected with %d failures", ejectAfter, st, ejectAfter)
	}
}

// TestStartupAuditHealsDivergedMembers: a fresh gateway has no memory
// of which members a previous gateway knew to be behind, so it must
// rediscover lag from the backends' own version counters and heal it —
// including a member that is missing the dataset entirely.
func TestStartupAuditHealsDivergedMembers(t *testing.T) {
	urls := make([]string, 3)
	regs := make([]*server.Registry, 3)
	backends := make([]*httptest.Server, 3)
	for i := 0; i < 3; i++ {
		regs[i] = server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(regs[i].Close)
		backends[i] = httptest.NewServer(server.NewHandler(regs[i]))
		t.Cleanup(backends[i].Close)
		urls[i] = backends[i].URL
	}
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for i := 0; i < 10000 && name == ""; i++ {
		cand := fmt.Sprintf("audit-%d", i)
		if ring.Owner(cand) == 0 {
			name = cand
		}
	}
	members := ring.ReplicaSet(name, 2)

	// Simulate the aftermath of a gateway crash mid-divergence: the
	// primary holds two acknowledged batches, the replica none at all.
	m, err := regs[members[0]].Create(name, server.DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var recs []map[string]string
		for _, o := range smallBatch(fmt.Sprintf("a%d", i)).Observations {
			recs = append(recs, o)
		}
		resp, body := do(t, http.MethodPost, urls[members[0]]+"/v1/datasets/"+name+"/observations",
			obsBatch{Observations: recs}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("direct append %d: %d %s", i, resp.StatusCode, body)
		}
	}
	_ = m

	gw, err := New(Config{Backends: urls, Replication: 2, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	waitFor(t, "startup audit to heal the missing replica", func() bool {
		inf, status := directInfo(t, backends[members[1]].URL, name)
		return status == http.StatusOK && inf.Version == 2
	})
	a, _ := directInfo(t, backends[members[0]].URL, name)
	b, _ := directInfo(t, backends[members[1]].URL, name)
	if a.Version != b.Version || a.Observations != b.Observations {
		t.Errorf("members still diverge after audit: %+v vs %+v", a, b)
	}
	if gw.Status()[members[1]].StaleDatasets != 0 {
		t.Errorf("replica still marked stale after heal: %+v", gw.Status()[members[1]])
	}
}
