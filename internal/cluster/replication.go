// Replication: the gateway-side machinery that keeps every dataset
// live on R backends (its replica set, a pure function of the name and
// the ring).
//
// The write path acknowledges on the acting primary — the first
// serveable member of the replica set — and mirrors the acknowledged
// write to the other members asynchronously, through a per-dataset
// worker that preserves order. Replica appends carry the append's
// sequence number (the version the primary assigned), so a re-sent or
// duplicated replica write lands exactly once; a replica that misses a
// write (down, or a sequence gap) is marked stale and healed by
// anti-entropy: the gateway exports the dataset from a serveable peer
// and imports it into the stale member, after which the ordinary
// sequenced stream resumes. Readmission of an ejected backend triggers
// the same reconciliation for every dataset it is behind on, which is
// what turns a recovered process back into a serving replica.
package cluster

import (
	"context"
	"encoding/json"
	"net/http"
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
// instead of growing the backlog. It sits below the capacity of the
// per-dataset job channel, so admission refuses before an enqueue could
// block the write path while it holds ds.mu. Variable for tests.
var mirrorHighWater int64 = 192

// jobTimeout bounds one replica-side request (append, export, import):
// replica work must never wedge the per-dataset queue the way a
// stalled backend otherwise could. Variable for tests.
var jobTimeout = 30 * time.Second

// dsIdleRetire is how long a dataset's replication worker sits idle —
// no jobs, no stale members — before it retires: the state is removed
// from the gateway's map and the goroutine exits, so churned dataset
// names (deleted, mistyped, one-off load runs) do not accumulate
// workers for the life of the process. A later write simply recreates
// the state. Variable for tests.
var dsIdleRetire = 5 * time.Minute

// job kinds processed by a dataset's replication worker.
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
// stMu guards the staleness bookkeeping, which the worker and the
// health prober touch without mu.
type dsState struct {
	name    string
	members []int // ring replica set, fixed for the gateway's lifetime

	mu      sync.Mutex
	jobs    chan repJob
	retired bool // worker gone, state removed from the map; re-fetch
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
	// job the worker has popped and is delivering, so admission control
	// sees in-flight work. Accessed atomically.
	queuedJobs int64

	stMu       sync.Mutex
	stale      []bool // member is known to be behind (missed a write)
	reconQueue []bool // a reconcile job for the member is already queued
}

// datasetState returns (lazily creating) the replication state for
// name, starting its worker. Only the write path and the reconcile
// triggers create state; reads peek with lookupDS.
func (g *Gateway) datasetState(name string) *dsState {
	g.dsMu.Lock()
	defer g.dsMu.Unlock()
	if ds, ok := g.ds[name]; ok {
		return ds
	}
	ds := &dsState{
		name:       name,
		members:    g.ring.ReplicaSet(name, g.replication),
		jobs:       make(chan repJob, 256),
		lastActing: -1,
		stale:      make([]bool, g.replication),
		reconQueue: make([]bool, g.replication),
	}
	// wg.Add must not race Close's wg.Wait (a request can still be in
	// flight when the server's shutdown timeout expires). Once closed,
	// hand back an orphan state with no worker: its queue is never
	// drained, but the process is exiting — flush observes g.stop and
	// the small mirror jobs just go down with it.
	g.closedMu.Lock()
	if g.closed {
		g.closedMu.Unlock()
		return ds
	}
	g.wg.Add(1)
	g.closedMu.Unlock()
	g.ds[name] = ds
	go g.dsWorker(ds)
	return ds
}

// lockDS returns name's live replication state with ds.mu held. The idle
// worker may retire a state between the map lookup and the lock; a
// retired state is let go and the fresh one fetched.
func (g *Gateway) lockDS(name string) *dsState {
	for {
		ds := g.datasetState(name)
		ds.mu.Lock()
		if !ds.retired {
			return ds
		}
		ds.mu.Unlock()
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

// auditVerify re-examines one audit suspect before marking it stale.
// The audit's list snapshot cannot tell genuine lag from the gateway's
// own mirrors still in flight, so this takes the dataset's write lock
// (no new acks can happen), drains the mirror queue, and re-reads the
// members' versions fresh: a member that is still behind — or missing
// the dataset — under those conditions is genuinely stale. Holding
// ds.mu also excludes concurrent idle retirement, so the flag always
// lands on the live state. Without evidence (no other member
// answered), nothing is marked: a wrong stale flag blocks service.
func (g *Gateway) auditVerify(name string, pos int) {
	ds := g.lockDS(name)
	if !g.flush(ds, false) {
		ds.mu.Unlock()
		return // queue would not drain; judged again by a later audit
	}
	best := uint64(0)
	bestOK := false
	var suspectV uint64
	suspectOK := false
	for i, m := range ds.members {
		v, ok := g.fetchVersion(m, name)
		if i == pos {
			suspectV, suspectOK = v, ok
			continue
		}
		if ok {
			if v >= best {
				best = v
			}
			bestOK = true
		}
	}
	marked := bestOK && (!suspectOK || suspectV < best)
	if marked {
		g.setStale(ds, pos, true)
	}
	ds.mu.Unlock()
	if marked {
		g.tryEnqueueReconcile(ds, pos)
	}
}

// fetchVersion reads one dataset's current append version directly
// from backend member. ok is false when the backend is unreachable or
// does not hold the dataset.
func (g *Gateway) fetchVersion(member int, name string) (version uint64, ok bool) {
	status, body, err := g.exchange(context.Background(), g.listTimeout, http.MethodGet,
		g.backends[member].url+"/v1/datasets/"+name, "", nil, nil)
	var inf server.Info
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &inf) != nil {
		return 0, false
	}
	return inf.Version, true
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

// serveable reports whether member pos of ds (nil for an untracked
// dataset) may serve: its backend is healthy and it is not known to be
// behind.
func (g *Gateway) serveable(ds *dsState, members []int, pos int) bool {
	if !g.backends[members[pos]].isHealthy() {
		return false
	}
	return ds == nil || !ds.isStale(pos)
}

// enqueue adds a job to the dataset's ordered queue. Called with ds.mu
// held by the write path (preserving ack order); the send may block on
// a full queue until the worker drains, which never requires ds.mu.
func (ds *dsState) enqueue(j repJob) { ds.jobs <- j }

// tryEnqueueReconcile queues an anti-entropy job for member pos unless
// one is already pending. Non-blocking: on a full queue the attempt is
// dropped and the next health probe re-arms it.
func (g *Gateway) tryEnqueueReconcile(ds *dsState, pos int) {
	ds.stMu.Lock()
	if !ds.stale[pos] || ds.reconQueue[pos] {
		ds.stMu.Unlock()
		return
	}
	ds.reconQueue[pos] = true
	ds.stMu.Unlock()
	select {
	case ds.jobs <- repJob{kind: jobReconcile, pos: pos}:
	default:
		ds.stMu.Lock()
		ds.reconQueue[pos] = false
		ds.stMu.Unlock()
	}
}

// triggerReconciles arms anti-entropy for every dataset that backend
// index b is behind on. Called by the prober whenever b looks healthy —
// in particular on readmission after an ejection, which is how a
// recovered backend catches back up.
func (g *Gateway) triggerReconciles(b int) {
	for _, ds := range g.snapshotDS() {
		for pos, m := range ds.members {
			if m == b {
				g.tryEnqueueReconcile(ds, pos)
			}
		}
	}
}

// flush waits (bounded) until every job enqueued for ds before the call
// has been processed, so a failover write or a quiesce observes all
// mirrored appends. It reports whether the queue drained in time.
func (g *Gateway) flush(ds *dsState, lock bool) bool {
	done := make(chan struct{})
	if lock {
		ds.mu.Lock()
		if ds.retired {
			// Retirement guarantees an empty queue and no stale member:
			// there is nothing to drain.
			ds.mu.Unlock()
			return true
		}
	}
	ds.enqueue(repJob{kind: jobFlush, done: done})
	if lock {
		ds.mu.Unlock()
	}
	select {
	case <-done:
		return true
	case <-g.stop:
		return false
	case <-time.After(flushTimeout):
		return false
	}
}

// dsWorker drains one dataset's replication queue in order, retiring
// once the dataset has been idle with no outstanding obligations. One
// reused timer tracks idleness (a time.After per job would park a
// five-minute timer in the runtime heap for every mirrored append).
func (g *Gateway) dsWorker(ds *dsState) {
	defer g.wg.Done()
	idle := time.NewTimer(dsIdleRetire)
	defer idle.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-idle.C:
			if g.tryRetire(ds) {
				return
			}
			idle.Reset(dsIdleRetire)
		case j := <-ds.jobs:
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
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(dsIdleRetire)
		}
	}
}

// tryRetire removes the dataset's replication state if nothing needs
// it: no writer mid-flight, no queued jobs, no stale member awaiting
// anti-entropy (a stale flag is an obligation — forgetting it would
// let a behind member serve stale data). Writers that raced the
// retirement observe ds.retired under ds.mu and re-fetch fresh state.
func (g *Gateway) tryRetire(ds *dsState) bool {
	if !ds.mu.TryLock() {
		return false
	}
	defer ds.mu.Unlock()
	if len(ds.jobs) > 0 {
		return false
	}
	ds.stMu.Lock()
	for _, s := range ds.stale {
		if s {
			ds.stMu.Unlock()
			return false
		}
	}
	ds.stMu.Unlock()
	ds.retired = true
	g.dsMu.Lock()
	if g.ds[ds.name] == ds {
		delete(g.ds, ds.name)
	}
	g.dsMu.Unlock()
	return true
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
	g.setStale(ds, j.pos, true)
	g.tryEnqueueReconcile(ds, j.pos)
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

// audit rediscovers replication lag by comparing every dataset's
// append version across its replica set, listing every healthy backend
// through the client list's fan-out (concurrently, and counting toward
// backend health). A member that is behind the best copy (or missing the
// dataset entirely) is marked stale and anti-entropy is armed. The
// staleness map is in-memory, so this runs once at startup — a
// restarted gateway must not trust a primary that a previous gateway
// knew to be behind — and again on every readmission, which also
// covers a backend that lost its disk while it was away. Spurious
// marks are harmless: the import no-ops when the member turns out to
// be current, and the stale flag clears.
func (g *Gateway) audit() {
	if g.replication < 2 {
		return
	}
	// One trace ID for the whole sweep: the audit is one logical
	// operation however many backends it lists.
	versions := make([]map[string]uint64, len(g.backends))
	names := make(map[string]bool)
	for i, lr := range g.listAll(context.Background(), telemetry.NewTraceID()) {
		if lr == nil {
			continue
		}
		versions[i] = make(map[string]uint64, len(lr.Datasets))
		for _, inf := range lr.Datasets {
			versions[i][inf.Name] = inf.Version
			names[inf.Name] = true
		}
	}
	for name := range names {
		members := g.ring.ReplicaSet(name, g.replication)
		best := uint64(0)
		present := false
		for _, m := range members {
			if versions[m] == nil {
				continue
			}
			if v, ok := versions[m][name]; ok {
				present = true
				if v > best {
					best = v
				}
			}
		}
		if !present {
			// No member holds it (a leftover on a non-member backend):
			// there is nothing in the set to copy from. Presence, not
			// version, is the trigger — a created-but-empty dataset
			// (version 0) still heals onto a member that lacks it.
			continue
		}
		for pos, m := range members {
			if versions[m] == nil {
				continue // unlisted (down): unknown, left to readmission
			}
			if v, ok := versions[m][name]; !ok || v < best {
				// A suspect by the list snapshot; verify under the write
				// lock before marking — the snapshot cannot tell genuine
				// lag from this gateway's own mirrors still in flight.
				g.auditVerify(name, pos)
			}
		}
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
			g.setStale(ds, pos, true)
			g.tryEnqueueReconcile(ds, pos)
			continue
		}
		atomic.AddInt64(&ds.queuedBytes, size)
		atomic.AddInt64(&ds.queuedJobs, 1)
		j := template
		j.pos = pos
		ds.enqueue(j)
	}
}
