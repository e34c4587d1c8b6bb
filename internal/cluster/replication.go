// Replication: the gateway-side machinery that keeps every dataset
// live on R backends (its replica set, a pure function of the name and
// the ring).
//
// The write path acknowledges on the acting primary — the first
// serveable member of the replica set — and mirrors the acknowledged
// write to the other members asynchronously, through a per-dataset
// queue that one goroutine drains in order while it holds work. Replica
// appends carry the append's sequence number (the version the primary
// assigned), so a re-sent or duplicated replica write lands exactly
// once; a replica that misses a write (down, or a sequence gap) is
// marked stale and healed by anti-entropy: the gateway exports the
// dataset from a serveable peer and imports it into the stale member,
// after which the ordinary sequenced stream resumes. Staleness is
// gateway memory, so a dataset is unresolved until resolve has read its
// members' versions: before its first read or write is served, and
// again after a member's readmission, which is what turns a recovered
// process back into a serving replica. The gateway keeps a dataset's
// state while the dataset is known to exist or the state owes work
// (queued jobs, a stale member), so requests for names that exist
// nowhere leave nothing behind.
package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copydetect/internal/server"
	"copydetect/internal/telemetry"
)

const (
	// jobAttempts bounds how many times one replica write is tried
	// before the member is marked stale and left to anti-entropy.
	jobAttempts = 3
	// jobBackoff separates those attempts.
	jobBackoff = 50 * time.Millisecond
	// flushTimeout bounds waiting for a dataset's replica queue to
	// drain before a failover write or a quiesce proceeds.
	flushTimeout = 60 * time.Second
	// maxWriteBody bounds a buffered write body (it must be re-sendable
	// to every member of the replica set); matches the daemon's own
	// import ceiling.
	maxWriteBody = 1 << 28
	// maxQueuedBytes bounds the write bodies parked in one dataset's
	// mirror queue. A member that is slow enough to pile up this much
	// falls back to anti-entropy — one export blob moves less data than
	// a backlog of buffered bodies, and the gateway must not hold
	// unbounded memory for a struggling replica.
	maxQueuedBytes = 64 << 20
)

// writeTimeout is the gateway-side ceiling on one write attempt: ds.mu
// serializes a dataset's writes, so a backend that accepts connections
// but never answers must not wedge the dataset. Variable for tests.
var writeTimeout = 60 * time.Second

// mirrorHighWater is the admission-control bound on a dataset's mirror
// queue: an append arriving while the dataset already has this many
// mirror jobs queued or in delivery is refused with 429 + Retry-After
// instead of growing the backlog. Variable for tests.
var mirrorHighWater int64 = 192

// jobTimeout bounds one replica-side request (append, export, import):
// replica work must never wedge the per-dataset queue the way a
// stalled backend otherwise could. Variable for tests.
var jobTimeout = 30 * time.Second

// job kinds processed by a dataset's drainer.
const (
	jobMirror    = iota // replay an acknowledged write on one member
	jobReconcile        // anti-entropy: sync one member from a peer
	jobFlush            // barrier: close done once everything before it ran
)

// repJob is one unit of ordered per-dataset replication work. A mirror
// replays the client's write verbatim; an append also carries the
// version the acting member assigned it as its sequence number.
type repJob struct {
	kind   int
	pos    int // index into dsState.members
	method string
	path   string // request-URI on the target backend
	seq    uint64 // appends only
	body   []byte
	ctype  string
	trace  string        // trace ID of the client write that spawned the job
	done   chan struct{} // jobFlush only
}

// dsState is the gateway's per-dataset replication state. mu serializes
// the synchronous write path (so replica jobs enqueue in ack order);
// stMu guards the job queue and the staleness bookkeeping, which the
// drainer and the health prober touch without mu. refs, guarded by
// g.dsMu, counts the request paths and the drainer using the state.
type dsState struct {
	name    string
	members []int // ring replica set, fixed for the gateway's lifetime
	refs    int

	mu sync.Mutex
	// lastActing is the members position that served the last write
	// (-1 before the first). When the acting member changes — failover,
	// or the primary coming back — the mirror queue must drain before
	// the new acting member takes a direct write: it may still hold
	// sequenced mirrors for that member, and a direct (unsequenced)
	// write overtaking them would fork the members' histories.
	lastActing int

	// queuedBytes tracks the body bytes sitting in jobs; bounded by
	// maxQueuedBytes so a slow member cannot pin unbounded memory.
	queuedBytes int64
	// queuedJobs counts mirror jobs (jobMirror) enqueued
	// but not yet fully processed — unlike len(jobs) it still counts a
	// job the drainer has popped and is delivering, so admission control
	// sees in-flight work. Accessed atomically.
	queuedJobs int64

	stMu       sync.Mutex
	jobs       []repJob // in order; a drainer goroutine runs while non-empty
	draining   bool     // the drainer is started (or, after Close, never will be)
	held       bool     // a member holds the dataset, as the gateway last learned
	stale      []bool   // member is known to be behind (missed a write)
	reconQueue []bool   // a reconcile job for the member is already queued

	// resolvedAt is g.admissions(ds) when resolve last judged the
	// members, 0 before; tries counts resolve's attempts. Both are
	// written under mu and read without it.
	resolvedAt, tries atomic.Uint64
}

// acquire returns name's replication state, creating it, with a
// reference taken; the caller gives it back with release. Writes, the
// audit and, at R >= 2, reads of an unresolved dataset acquire; other
// reads peek with lookupDS.
func (g *Gateway) acquire(name string) *dsState {
	g.dsMu.Lock()
	defer g.dsMu.Unlock()
	ds := g.ds[name]
	if ds == nil {
		ds = &dsState{
			name:       name,
			members:    g.ring.ReplicaSet(name, g.replication),
			lastActing: -1,
			stale:      make([]bool, g.replication),
			reconQueue: make([]bool, g.replication),
		}
		g.ds[name] = ds
	}
	ds.refs++
	return ds
}

// release gives back a reference. The last one drops the state from the
// map unless the dataset is known to exist or the state owes work:
// queued jobs (their drainer holds a reference while it runs) or a stale
// member awaiting anti-entropy — forgetting a stale flag would let a
// behind member serve. Whoever marks a member stale or queues a job
// holds a reference, or queues a reconcile for a member already stale,
// or a flush behind a running drainer: a dropped state never changes.
func (g *Gateway) release(ds *dsState) {
	g.dsMu.Lock()
	defer g.dsMu.Unlock()
	if ds.refs--; ds.refs > 0 {
		return
	}
	ds.stMu.Lock()
	defer ds.stMu.Unlock()
	if !ds.held && len(ds.jobs) == 0 && !slices.Contains(ds.stale, true) {
		delete(g.ds, ds.name)
	}
}

func (g *Gateway) lookupDS(name string) *dsState {
	g.dsMu.Lock()
	defer g.dsMu.Unlock()
	return g.ds[name]
}

// snapshotDS copies the live dataset-state list out from under dsMu, so
// callers can visit every dataset without holding the map lock.
func (g *Gateway) snapshotDS() []*dsState {
	g.dsMu.Lock()
	defer g.dsMu.Unlock()
	states := make([]*dsState, 0, len(g.ds))
	for _, ds := range g.ds {
		states = append(states, ds)
	}
	return states
}

func (ds *dsState) isStale(pos int) bool {
	ds.stMu.Lock()
	defer ds.stMu.Unlock()
	return ds.stale[pos]
}

// setStale marks (or clears) member pos of ds as stale, keeping the
// gateway's aggregate counter in sync so the probe path can skip its
// dataset scan entirely when nothing is stale anywhere.
func (g *Gateway) setStale(ds *dsState, pos int, v bool) {
	ds.stMu.Lock()
	changed := ds.stale[pos] != v
	ds.stale[pos] = v
	ds.stMu.Unlock()
	if !changed {
		return
	}
	if v {
		g.staleTotal.Add(1)
	} else {
		g.staleTotal.Add(-1)
	}
}

// resolve is the one rule for "is this member behind?". Called with
// ds.mu held (no write can be acknowledged meanwhile), it drains the
// mirror queue, so the gateway's own mirrors in flight are not taken
// for lag, and reads the healthy members' versions in parallel (an
// ejected member cannot serve, and its readmission unresolves the
// dataset); each wait is bounded by listTimeout. Only when every member
// read answers is anyone judged: each one missing the dataset or below
// the highest version is marked stale and anti-entropy is armed, and
// the dataset is resolved (all-404 marks nobody). Otherwise the highest
// version is unknown, and the next touch tries again.
func (g *Gateway) resolve(ds *dsState) {
	at := g.admissions(ds)
	if ds.resolvedAt.Load() == at {
		return
	}
	defer ds.tries.Add(1)
	if !g.flush(ds, false, g.listTimeout) {
		return
	}
	type reading struct {
		polled, answered, held bool
		version                uint64
	}
	rs := make([]reading, len(ds.members))
	var wg sync.WaitGroup
	for pos, m := range ds.members {
		if rs[pos].polled = g.backends[m].isHealthy(); rs[pos].polled {
			wg.Add(1)
			go func(r *reading, m int) {
				defer wg.Done()
				r.version, r.held, r.answered = g.fetchVersion(m, ds.name)
			}(&rs[pos], m)
		}
	}
	wg.Wait()
	var best uint64
	held := false
	for _, r := range rs {
		if r.polled && !r.answered {
			return
		}
		if r.held {
			held, best = true, max(best, r.version)
		}
	}
	for pos, r := range rs {
		if held && r.polled && (!r.held || r.version < best) {
			g.markStale(ds, pos)
		}
	}
	ds.stMu.Lock()
	ds.held = held
	ds.stMu.Unlock()
	// A readmission since the start moved the count: still unresolved.
	ds.resolvedAt.Store(at)
}

// admissions is 1 plus the readmissions of ds's members: a dataset is
// resolved while its resolvedAt equals it.
func (g *Gateway) admissions(ds *dsState) uint64 {
	n := uint64(1)
	for _, m := range ds.members {
		n += g.backends[m].admissions.Load()
	}
	return n
}

// fetchVersion reads one dataset's current append version directly
// from backend member. answered is false when the backend gave no
// usable answer; held is false when it answered that it does not hold
// the dataset (404).
func (g *Gateway) fetchVersion(member int, name string) (version uint64, held, answered bool) {
	status, body, err := g.exchange(context.Background(), g.listTimeout, http.MethodGet,
		g.backends[member].url+"/v1/datasets/"+name, "", nil, nil)
	var inf server.Info
	switch {
	case err == nil && status == http.StatusNotFound:
		return 0, false, true
	case err != nil || status != http.StatusOK || json.Unmarshal(body, &inf) != nil:
		return 0, false, false
	}
	return inf.Version, true, true
}

// staleCounts returns, per backend index, how many datasets that
// backend is currently marked stale on — surfaced on /healthz as
// replication lag. One pass over the state map covers every backend.
func (g *Gateway) staleCounts() []int {
	out := make([]int, len(g.backends))
	for _, ds := range g.snapshotDS() {
		ds.stMu.Lock()
		for pos, m := range ds.members {
			if ds.stale[pos] {
				out[m]++
			}
		}
		ds.stMu.Unlock()
	}
	return out
}

// serveable reports whether member pos of ds (nil when the gateway
// holds no state for the dataset) may serve: its backend is healthy and
// it is not known to be behind.
func (g *Gateway) serveable(ds *dsState, members []int, pos int) bool {
	if !g.backends[members[pos]].isHealthy() {
		return false
	}
	return ds == nil || !ds.isStale(pos)
}

// markStale marks member pos of ds as behind and arms its anti-entropy.
func (g *Gateway) markStale(ds *dsState, pos int) {
	g.setStale(ds, pos, true)
	g.enqueue(ds, repJob{kind: jobReconcile, pos: pos})
}

// enqueue appends a job to the dataset's ordered queue and starts its
// drainer if none runs. A reconcile is queued only for a stale member
// without one pending. The write path calls it with ds.mu held, so
// mirrors queue in acknowledgement order; it never blocks.
func (g *Gateway) enqueue(ds *dsState, j repJob) {
	ds.stMu.Lock()
	if j.kind == jobReconcile {
		if !ds.stale[j.pos] || ds.reconQueue[j.pos] {
			ds.stMu.Unlock()
			return
		}
		ds.reconQueue[j.pos] = true
	}
	ds.jobs = append(ds.jobs, j)
	start := !ds.draining
	ds.draining = true
	ds.stMu.Unlock()
	if !start {
		return
	}
	// wg.Add must not race Close's wg.Wait (a request can still be in
	// flight when the server's shutdown timeout expires). Once closed,
	// nothing drains: flush observes g.stop, and the queued jobs go down
	// with the exiting process.
	g.closedMu.Lock()
	defer g.closedMu.Unlock()
	if g.closed {
		return
	}
	g.wg.Add(1)
	g.dsMu.Lock()
	ds.refs++
	g.dsMu.Unlock()
	go g.drain(ds)
}

// triggerReconciles arms anti-entropy for every dataset that backend
// index b is behind on. Called by the prober whenever b looks healthy —
// in particular on readmission after an ejection, which is how a
// recovered backend catches back up.
func (g *Gateway) triggerReconciles(b int) {
	for _, ds := range g.snapshotDS() {
		for pos, m := range ds.members {
			if m == b {
				g.enqueue(ds, repJob{kind: jobReconcile, pos: pos})
			}
		}
	}
}

// flush waits (bounded) until every job enqueued for ds before the call
// has been processed, so a failover write or a quiesce observes all
// mirrored appends. It reports whether the queue drained in time.
func (g *Gateway) flush(ds *dsState, lock bool, timeout time.Duration) bool {
	done := make(chan struct{})
	if lock {
		ds.mu.Lock()
	}
	ds.stMu.Lock()
	idle := !ds.draining
	if !idle {
		ds.jobs = append(ds.jobs, repJob{kind: jobFlush, done: done})
	}
	ds.stMu.Unlock()
	if lock {
		ds.mu.Unlock()
	}
	if idle {
		return true
	}
	select {
	case <-done:
		return true
	case <-g.stop:
		return false
	case <-time.After(timeout):
		return false
	}
}

// drain runs one dataset's queued jobs in order and exits, giving back
// its reference, once the queue is empty.
func (g *Gateway) drain(ds *dsState) {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		ds.stMu.Lock()
		if len(ds.jobs) == 0 {
			ds.jobs, ds.draining = nil, false
			ds.stMu.Unlock()
			g.release(ds)
			return
		}
		j := ds.jobs[0]
		ds.jobs[0] = repJob{} // the queue no longer pins the popped body
		ds.jobs = ds.jobs[1:]
		ds.stMu.Unlock()
		switch j.kind {
		case jobFlush:
			close(j.done)
		case jobReconcile:
			g.runReconcile(ds, j.pos)
		default:
			g.runMirror(ds, j)
			atomic.AddInt64(&ds.queuedJobs, -1)
		}
		if n := int64(len(j.body)); n > 0 {
			atomic.AddInt64(&ds.queuedBytes, -n)
		}
	}
}

// runMirror delivers one mirrored write to its member, marking the
// member stale when delivery fails for good. A sequenced append the
// member already holds (duplicate) counts as delivered.
func (g *Gateway) runMirror(ds *dsState, j repJob) {
	b := g.backends[ds.members[j.pos]]
	for attempt := 0; attempt < jobAttempts; attempt++ {
		if !b.isHealthy() {
			// Ejected member: don't even dial (a hanging backend would
			// burn jobTimeout per queued job and wedge the flush path) —
			// anti-entropy on readmission is cheaper than retries.
			break
		}
		if attempt > 0 {
			select {
			case <-g.stop:
				return
			case <-time.After(jobBackoff):
			}
		}
		status, err := g.mirrorOnce(b, j)
		if err != nil {
			continue
		}
		if delivered(j.method, j.path, status) {
			return
		}
		// A definitive refusal (e.g. 409 sequence gap: the member missed
		// earlier writes) is not retryable — heal by anti-entropy.
		break
	}
	g.markStale(ds, j.pos)
}

// mirrorOnce performs one replica-write attempt under the job's trace
// ID: a mirror rides under the ID of the client write it replicates, so
// one grep follows the write to every member.
func (g *Gateway) mirrorOnce(b *backend, j repJob) (int, error) {
	hdr := http.Header{}
	if j.ctype != "" {
		hdr.Set("Content-Type", j.ctype)
	}
	if j.seq != 0 {
		hdr.Set(server.SeqHeader, strconv.FormatUint(j.seq, 10))
	}
	status, _, err := g.exchange(context.Background(), jobTimeout, j.method, b.url+j.path, j.trace, j.body, hdr)
	return status, err
}

// delivered is the one rule for "did this write land on the member?",
// for a write given by its method and request-URI: an append is 202, an
// import 200; a create that conflicts and a delete that finds nothing
// leave the member holding what the write asked for. The acting
// member's answer decides whether a write is mirrored, a mirror's
// whether the member is current, and anti-entropy's whether it healed.
func delivered(method, uri string, status int) bool {
	path, _, _ := strings.Cut(uri, "?")
	switch {
	case method == http.MethodPut:
		return status == http.StatusCreated || status == http.StatusConflict
	case method == http.MethodDelete:
		return status == http.StatusOK || status == http.StatusNotFound
	case method != http.MethodPost:
		return false
	case strings.HasSuffix(path, "/observations"):
		return status == http.StatusAccepted
	case strings.HasSuffix(path, "/import"):
		return status == http.StatusOK
	}
	return false
}

// runReconcile heals one stale member by anti-entropy: export the
// dataset from the best serveable peer and import it into the member.
// If the peer no longer has the dataset (deleted), the member's copy is
// deleted too. On any failure the member stays stale; the next healthy
// probe of its backend re-arms the job.
func (g *Gateway) runReconcile(ds *dsState, pos int) {
	defer func() {
		ds.stMu.Lock()
		ds.reconQueue[pos] = false
		ds.stMu.Unlock()
	}()
	if !ds.isStale(pos) {
		return
	}
	target := g.backends[ds.members[pos]]
	if !target.isHealthy() {
		return
	}
	src := -1
	for i, m := range ds.members {
		if i != pos && g.backends[m].isHealthy() && !ds.isStale(i) {
			src = m
			break
		}
	}
	if src < 0 {
		return // no serveable peer to copy from; retried later
	}
	path := "/v1/datasets/" + ds.name
	// One trace ID spans the whole reconcile (export, then delete or
	// import), so the cycle reads as one operation in the access logs.
	trace := telemetry.NewTraceID()
	status, blob, err := g.exchange(context.Background(), jobTimeout, http.MethodGet,
		g.backends[src].url+path+"/export", trace, nil, nil)
	j := repJob{method: http.MethodPost, path: path + "/import", body: blob,
		ctype: "application/octet-stream", trace: trace}
	switch {
	case err != nil:
		return
	case status == http.StatusNotFound:
		// The dataset is gone from its serving peer: propagate the
		// deletion rather than resurrecting it.
		j = repJob{method: http.MethodDelete, path: path, trace: trace}
	case status != http.StatusOK:
		return
	}
	if status, err := g.mirrorOnce(target, j); err == nil && delivered(j.method, j.path, status) {
		g.setStale(ds, pos, false)
	}
}

// audit is the proactive healer: a wiped or lagging member must not
// wait for a client to touch its dataset, or losing its peer loses
// data. At startup and on every readmission it lists the healthy
// backends (the client list's fan-out, which counts toward health) only
// to learn the dataset names, and resolves each one.
func (g *Gateway) audit() {
	if g.replication < 2 {
		return
	}
	// One trace ID for the whole sweep: the audit is one logical
	// operation however many backends it lists.
	names := make(map[string]bool)
	for _, lr := range g.listAll(context.Background(), telemetry.NewTraceID()) {
		if lr != nil {
			for _, inf := range lr.Datasets {
				names[inf.Name] = true
			}
		}
	}
	for name := range names {
		ds := g.acquire(name)
		ds.mu.Lock()
		g.resolve(ds)
		ds.mu.Unlock()
		g.release(ds)
	}
}

// afterWrite enqueues the replica mirror jobs for a write the acting
// member just acknowledged, if it landed there. Called with ds.mu held,
// so jobs enter the queue in acknowledgement order. Members that are
// down still get their job: its failure is what marks them stale and
// arms anti-entropy.
func (g *Gateway) afterWrite(ds *dsState, req *http.Request, served int, status int, respBody, reqBody []byte) {
	template := repJob{kind: jobMirror, method: req.Method, path: req.URL.RequestURI(), body: reqBody,
		ctype: req.Header.Get("Content-Type"), trace: req.Header.Get(telemetry.TraceHeader)}
	if !delivered(template.method, template.path, status) {
		return
	}
	ds.stMu.Lock()
	ds.held = req.Method != http.MethodDelete
	ds.stMu.Unlock()
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/observations") {
		var ack struct {
			Version   uint64 `json:"version"`
			Duplicate bool   `json:"duplicate"`
		}
		if err := json.Unmarshal(respBody, &ack); err != nil || ack.Version == 0 || ack.Duplicate {
			return // nothing newly applied; nothing to mirror
		}
		template.seq = ack.Version
	}
	size := int64(len(template.body))
	for pos := range ds.members {
		if pos == served {
			continue
		}
		if size > 0 && atomic.LoadInt64(&ds.queuedBytes)+size > maxQueuedBytes {
			// Queue byte budget exhausted: stop buffering bodies for
			// this member and let anti-entropy move one snapshot
			// instead of a backlog of appends.
			g.markStale(ds, pos)
			continue
		}
		atomic.AddInt64(&ds.queuedBytes, size)
		atomic.AddInt64(&ds.queuedJobs, 1)
		j := template
		j.pos = pos
		g.enqueue(ds, j)
	}
}
