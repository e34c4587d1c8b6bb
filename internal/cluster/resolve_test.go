package cluster

import (
	"encoding/json"
	"errors"
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
)

// gateTransport holds every dataset list and every export until release
// closes: the startup audit cannot land, and anti-entropy cannot heal,
// before the test has looked. The first read of a dataset from
// silentHost gets no answer. The rest goes to next (by default
// http.DefaultTransport).
type gateTransport struct {
	release    chan struct{}
	silentHost string
	silenced   atomic.Bool
	next       http.RoundTripper
}

func (gt *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && req.URL.Host == gt.silentHost &&
		strings.Count(req.URL.Path, "/") == 3 && gt.silenced.CompareAndSwap(false, true) {
		return nil, errors.New("gateTransport: no answer")
	}
	if req.Method == http.MethodGet &&
		(req.URL.Path == "/v1/datasets" || strings.HasSuffix(req.URL.Path, "/export")) {
		select {
		case <-gt.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if gt.next != nil {
		return gt.next.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// gatedStart starts three real daemons, gives a dataset whose primary
// is backend 0 appends[pos] direct appends on member pos of its replica
// set of 2 (a negative count: the member does not hold it), and only
// then starts an R = 2 gateway over a gateTransport whose silent host is
// member silent (none if negative) — a gateway restarted onto members
// that diverged under its predecessor.
func gatedStart(t *testing.T, silent int, appends ...int) (gw *Gateway, gt *gateTransport, name string) {
	t.Helper()
	urls := make([]string, 3)
	regs := make([]*server.Registry, 3)
	for i := range urls {
		regs[i] = server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(regs[i].Close)
		s := httptest.NewServer(server.NewHandler(regs[i]))
		t.Cleanup(s.Close)
		urls[i] = s.URL
	}
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && name == ""; i++ {
		if cand := fmt.Sprintf("gated-%d", i); ring.Owner(cand) == 0 {
			name = cand
		}
	}
	members := ring.ReplicaSet(name, 2)
	for pos, n := range appends {
		if n < 0 {
			continue
		}
		if _, err := regs[members[pos]].Create(name, server.DatasetConfig{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			resp, body := do(t, http.MethodPost, urls[members[pos]]+"/v1/datasets/"+name+"/observations",
				smallBatch(fmt.Sprintf("g%d", i)), nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("direct append: %d %s", resp.StatusCode, body)
			}
		}
	}
	gt = &gateTransport{release: make(chan struct{})}
	if silent >= 0 {
		gt.silentHost = strings.TrimPrefix(urls[members[silent]], "http://")
	}
	gw, err = New(Config{Backends: urls, Replication: 2, ProbeEvery: time.Hour, Transport: gt})
	if err != nil {
		t.Fatal(err)
	}
	return gw, gt, name
}

// closeBounded closes gw, failing the test instead of hanging it when
// Close does not return.
func closeBounded(t *testing.T, gw *Gateway) {
	done := make(chan struct{})
	go func() { gw.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("Gateway.Close did not return within 10 s")
	}
}

// TestBehindMemberDoesNotServeAfterRestart: a restarted gateway knows
// nothing of which member is behind. Its first read of a dataset must
// still not come from the primary that holds one append fewer than the
// replica — not even while the startup audit is held back.
func TestBehindMemberDoesNotServeAfterRestart(t *testing.T) {
	gw, gt, name := gatedStart(t, -1, 0, 1)
	t.Cleanup(func() { closeBounded(t, gw) })
	// Registered after the Close, so it runs first: the held audit and
	// anti-entropy must be let go before Close waits for them.
	t.Cleanup(func() { close(gt.release) })
	gwServer := httptest.NewServer(gw)
	t.Cleanup(gwServer.Close)

	resp, raw := do(t, http.MethodGet, gwServer.URL+"/v1/datasets/"+name, nil, nil)
	var inf infoBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &inf); err != nil {
			t.Fatal(err)
		}
	}
	if resp.StatusCode != http.StatusOK || inf.Version != 1 || resp.Header.Get(server.ReplicaHeader) != "true" {
		t.Errorf("first read after restart: %d %s (%s %q), want the replica's version 1, marked",
			resp.StatusCode, raw, server.ReplicaHeader, resp.Header.Get(server.ReplicaHeader))
	}
	if st := gw.Status()[gw.Ring().ReplicaSet(name, 2)[0]]; st.StaleDatasets != 1 {
		t.Errorf("behind primary not marked stale: %+v", st)
	}
}

// readInfo reads a dataset through the gateway, failing the test unless
// it answers 200; it returns the info and whether a replica served it.
func readInfo(t *testing.T, url string) (infoBody, bool) {
	t.Helper()
	resp, raw := do(t, http.MethodGet, url, nil, nil)
	var inf infoBody
	if err := json.Unmarshal(raw, &inf); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read: %d %s", resp.StatusCode, raw)
	}
	return inf, resp.Header.Get(server.ReplicaHeader) == "true"
}

// TestSilentMemberIsNotJudged: a member whose version read gets no
// answer may be the one ahead. The primary holds one append more than
// the replica and its first version read fails: nobody is judged, and
// the primary is neither marked stale nor rolled back to the replica's
// copy by anti-entropy.
func TestSilentMemberIsNotJudged(t *testing.T) {
	gw, gt, name := gatedStart(t, 0, 1, 0)
	t.Cleanup(func() { closeBounded(t, gw) })
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gt.release) }) }
	t.Cleanup(release) // runs before the Close above
	gwServer := httptest.NewServer(gw)
	t.Cleanup(gwServer.Close)
	members := gw.Ring().ReplicaSet(name, 2)
	base := gwServer.URL + "/v1/datasets/" + name
	staleCounts := func() (int, int) {
		st := gw.Status()
		return st[members[0]].StaleDatasets, st[members[1]].StaleDatasets
	}

	// The primary's version read gets no answer: the dataset stays
	// unresolved, and the read is served as before, by the primary.
	if inf, replica := readInfo(t, base); inf.Version != 1 || replica {
		t.Errorf("read with the primary silent: version %d, replica %v; want the primary's version 1", inf.Version, replica)
	}
	if p, r := staleCounts(); p != 0 || r != 0 {
		t.Errorf("stale datasets after a read that got no answer: primary %d, replica %d; want 0, 0", p, r)
	}
	// Both answer now: the replica is the member behind.
	if inf, replica := readInfo(t, base); inf.Version != 1 || replica {
		t.Errorf("second read: version %d, replica %v; want the primary's version 1", inf.Version, replica)
	}
	if p, r := staleCounts(); p != 0 || r != 1 {
		t.Errorf("stale datasets after resolving: primary %d, replica %d; want 0, 1", p, r)
	}
	// Anti-entropy heals the replica from the primary, never the reverse.
	release()
	waitFor(t, "anti-entropy to heal the replica", func() bool {
		inf, status := directInfo(t, gw.backends[members[1]].url, name)
		_, r := staleCounts()
		return status == http.StatusOK && inf.Version == 1 && r == 0
	})
	if inf, status := directInfo(t, gw.backends[members[0]].url, name); status != http.StatusOK || inf.Version != 1 {
		t.Errorf("primary after the heal: %d version %d, want its own version 1", status, inf.Version)
	}
}

// TestCloseDuringAuditDoesNotDeadlock: Close must not hold the lock that
// the audit takes to reach a dataset's state while it waits for the
// audit to finish — nor may a second, concurrent Close return before the
// workers have stopped.
func TestCloseDuringAuditDoesNotDeadlock(t *testing.T) {
	// Only the primary holds the dataset: the audit has a member to judge.
	gw, gt, _ := gatedStart(t, -1, 0, -1)
	var released bool
	t.Cleanup(func() {
		if !released {
			close(gt.release)
		}
	})

	closed := make(chan struct{}, 2)
	go func() { gw.Close(); closed <- struct{}{} }()
	<-gw.stop
	go func() { gw.Close(); closed <- struct{}{} }()
	select {
	case <-closed:
		t.Fatal("Close returned while the audit was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gt.release)
	released = true
	for i := 0; i < 2; i++ {
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("Close call %d did not return within 10 s of the audit's list being released", i+1)
		}
	}
}

// TestListReportsServeableMember: the merged list reports the numbers
// of the member a read would be served by. A primary marked stale must
// not lend the list its older version while reads come from the replica.
func TestListReportsServeableMember(t *testing.T) {
	rc := newReplCluster(t, 3, Config{Replication: 2, ProbeEvery: time.Hour})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name
	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("l0"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica to mirror the append", func() bool {
		inf, status := directInfo(t, rc.backends[members[1]].URL, name)
		return status == http.StatusOK && inf.Version == 1
	})
	// The replica moves one append ahead, and the primary is known behind.
	if resp, body := do(t, http.MethodPost, rc.backends[members[1]].URL+"/v1/datasets/"+name+"/observations",
		smallBatch("l1"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("direct append: %d %s", resp.StatusCode, body)
	}
	ds := rc.gw.acquire(name)
	rc.gw.setStale(ds, 0, true)
	rc.gw.release(ds)

	resp, raw := do(t, http.MethodGet, base, nil, nil)
	var read infoBody
	if err := json.Unmarshal(raw, &read); err != nil || resp.StatusCode != http.StatusOK || read.Version != 2 {
		t.Fatalf("read: %d %s, want version 2 from the replica", resp.StatusCode, raw)
	}
	resp, raw = do(t, http.MethodGet, rc.gwServer.URL+"/v1/datasets", nil, nil)
	var lr listResponse
	if err := json.Unmarshal(raw, &lr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, raw)
	}
	if len(lr.Datasets) != 1 || lr.Datasets[0].Version != read.Version {
		t.Errorf("list = %s, want %q at version %d, as a read answers", raw, name, read.Version)
	}
}

// TestReadmittedWipedMemberDoesNotServe: a readmission unresolves the
// backend's datasets. A primary that comes back from an ejection without
// a dataset it held (a wiped disk) must not answer for it: the next read
// resolves the dataset again and is served by a member that holds it.
func TestReadmittedWipedMemberDoesNotServe(t *testing.T) {
	rc := newReplCluster(t, 3, Config{
		Replication: 2,
		ProbeEvery:  100 * time.Millisecond, // a probe may take 50ms
	})
	name := rc.nameWithPrimary(0)
	members := rc.gw.Ring().ReplicaSet(name, 2)
	base := rc.gwServer.URL + "/v1/datasets/" + name
	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("w"), nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "replica to mirror the append", func() bool {
		inf, status := directInfo(t, rc.backends[members[1]].URL, name)
		return status == http.StatusOK && inf.Version == 1
	})

	rc.transport.setBlocked(rc.hosts[members[0]], true)
	waitFor(t, "primary ejection", func() bool { return !rc.gw.Status()[members[0]].Healthy })
	if resp, body := do(t, http.MethodDelete, rc.backends[members[0]].URL+"/v1/datasets/"+name, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("wiping the primary: %d %s", resp.StatusCode, body)
	}
	rc.transport.setBlocked(rc.hosts[members[0]], false)
	waitFor(t, "primary readmission", func() bool { return rc.gw.Status()[members[0]].Healthy })

	resp, raw := do(t, http.MethodGet, base, nil, nil)
	var inf infoBody
	if err := json.Unmarshal(raw, &inf); err != nil || resp.StatusCode != http.StatusOK || inf.Version != 1 {
		t.Errorf("read after the wiped primary's readmission: %d %s, want version 1", resp.StatusCode, raw)
	}
}

// TestUnresolvedReadsDoNotWaitOnBacklog: resolving a dataset drains its
// mirror queue, but a read must not wait out a hung mirror delivery.
// Concurrent reads of an unresolved dataset whose replica hangs are
// each served within about one listTimeout (1 s here), not after the
// 60 s flush bound nor one listTimeout per read in turn; once the
// backlog drains, the next read resolves the dataset. An append over
// the high-water mark is refused at once, before any resolve.
func TestUnresolvedReadsDoNotWaitOnBacklog(t *testing.T) {
	oldHW := mirrorHighWater
	mirrorHighWater = 1
	t.Cleanup(func() { mirrorHighWater = oldHW }) // runs after the gateway's cleanups
	urls := make([]string, 2)
	for i := range urls {
		reg := server.NewRegistry(server.Config{Options: core.Options{Workers: 1}})
		t.Cleanup(reg.Close)
		s := httptest.NewServer(server.NewHandler(reg))
		t.Cleanup(s.Close)
		urls[i] = s.URL
	}
	ring, err := NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for i := 0; i < 10000 && name == ""; i++ {
		if cand := fmt.Sprintf("backlog-%d", i); ring.Owner(cand) == 0 {
			name = cand
		}
	}
	// The replica's writes hang; the startup audit is held back, so that
	// no resolve but the test's own holds the dataset's lock.
	ht := &hangTransport{hangHost: strings.TrimPrefix(urls[1], "http://"), release: make(chan struct{})}
	gt := &gateTransport{release: make(chan struct{}), next: ht}
	gw, err := New(Config{Backends: urls, Replication: 2, ProbeEvery: 100 * time.Millisecond, Transport: gt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeBounded(t, gw) })
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(ht.release) }) }
	t.Cleanup(func() { release(); close(gt.release) }) // runs before the Close above
	gwServer := httptest.NewServer(gw)
	t.Cleanup(gwServer.Close)
	base := gwServer.URL + "/v1/datasets/" + name

	// The create resolves the dataset; its mirror to the replica hangs.
	if resp, body := do(t, http.MethodPut, base, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	// The replica's readmission unresolves it, behind the hung mirror.
	gw.backends[1].admissions.Add(1)

	start := time.Now()
	if resp, body := do(t, http.MethodPost, base+"/observations", smallBatch("b"), nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("append over the high-water mark: %d %s, want 429", resp.StatusCode, body)
	}
	if took := time.Since(start); took > gw.listTimeout/2 {
		t.Errorf("append over the high-water mark took %v to be refused", took)
	}

	const readers = 8
	start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if inf, replica := readInfo(t, base); inf.Version != 0 || replica {
				t.Errorf("read behind the backlog: version %d, replica %v; want the primary's version 0", inf.Version, replica)
			}
		}()
	}
	wg.Wait()
	if took := time.Since(start); took > 4*time.Second {
		t.Errorf("%d concurrent reads of an unresolved dataset took %v behind a hung mirror, want about one listTimeout (%v)",
			readers, took, gw.listTimeout)
	}

	release()
	ds := gw.lookupDS(name)
	waitFor(t, "the mirror queue to drain", func() bool { return atomic.LoadInt64(&ds.queuedJobs) == 0 })
	readInfo(t, base)
	if ds.resolvedAt.Load() != gw.admissions(ds) {
		t.Error("dataset still unresolved after a read with the backlog drained")
	}
}
