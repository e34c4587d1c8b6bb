package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copydetect/internal/server"
)

// Config tunes a Gateway. Only Backends is required.
type Config struct {
	// Backends are the copydetectd base URLs (e.g. "http://10.0.0.1:8377").
	// Order matters: the ring is built over this exact list, so every
	// gateway configured with the same list routes identically.
	Backends []string
	// Replication is how many backends hold each dataset (the replica
	// set size R). <= 1 (the zero value) keeps each dataset on its ring
	// owner alone; 2 survives the loss of any single backend: writes
	// are acknowledged by the acting primary and mirrored to the other
	// members, reads fail over, and a recovered backend is caught up by
	// anti-entropy before it serves again. Clamped to the backend count.
	Replication int

	// ProbeEvery is the health-check period (default 1s); ProbeTimeout
	// bounds one probe (default half of ProbeEvery, capped at 2s).
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration

	// Transport overrides the outbound round tripper (tests inject
	// failures here). nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// retries is how many times an idempotent request (a read or a
// quiesce) is re-attempted after a transport failure, walking the
// replica set; every member gets at least one attempt whatever the
// count. Writes are never retried — an append is not idempotent at the
// version level.
const retries = 2

// Gateway routes the copydetectd wire protocol across a fixed set of
// backends: dataset-scoped requests go to the ring owner of the dataset
// name and are proxied byte-for-byte (headers included, so ETag /
// If-None-Match revalidation works unchanged through the gateway);
// GET /v1/datasets fans out to every backend and merges; GET /healthz
// reports the gateway's view of backend health.
type Gateway struct {
	ring         *Ring
	backends     []*backend
	client       *http.Client
	probeEvery   time.Duration
	probeTimeout time.Duration
	listTimeout  time.Duration
	replication  int

	// Operational counters, exposed by RegisterMetrics. Plain atomics
	// so the hot paths pay one add whether or not telemetry is wired.
	readRetries      atomic.Int64 // read re-attempts after transport failures
	writeFailovers   atomic.Int64 // writes moved off the acting member
	admissionRejects atomic.Int64 // appends refused with 429

	dsMu sync.Mutex
	ds   map[string]*dsState
	// staleTotal counts stale (dataset, member) pairs gateway-wide, so
	// the per-probe reconcile re-arm can skip scanning the dataset map
	// in the steady state where nothing is stale.
	staleTotal atomic.Int64

	stop     chan struct{}
	wg       sync.WaitGroup
	closedMu sync.Mutex
	closed   bool
}

// New builds the gateway and starts its health probes. Close releases
// them.
func New(cfg Config) (*Gateway, error) {
	urls := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		urls[i] = strings.TrimRight(b, "/")
	}
	ring, err := NewRing(urls)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		ring:         ring,
		probeEvery:   cfg.ProbeEvery,
		probeTimeout: cfg.ProbeTimeout,
		replication:  cfg.Replication,
		ds:           make(map[string]*dsState),
		stop:         make(chan struct{}),
	}
	if g.replication < 1 {
		g.replication = 1
	}
	if g.replication > ring.NumBackends() {
		g.replication = ring.NumBackends()
	}
	if g.probeEvery <= 0 {
		g.probeEvery = time.Second
	}
	if g.probeTimeout <= 0 {
		g.probeTimeout = g.probeEvery / 2
		if g.probeTimeout > 2*time.Second {
			g.probeTimeout = 2 * time.Second
		}
	}
	// The list fan-out is a cheap read and must not hang on a stalled
	// (SIGSTOP'd, blackholed) backend the way a legitimately blocking
	// quiesce proxy may: bound it generously relative to the probe
	// budget. Only the proxy path stays unbounded.
	g.listTimeout = 10 * g.probeTimeout
	if g.listTimeout < time.Second {
		g.listTimeout = time.Second
	}
	if g.listTimeout > 30*time.Second {
		g.listTimeout = 30 * time.Second
	}
	// No client timeout: quiesce blocks for as long as convergence
	// takes, and the incoming request's context already propagates
	// client disconnects. Probes use their own deadline.
	g.client = &http.Client{Transport: cfg.Transport}
	g.backends = make([]*backend, ring.NumBackends())
	for i := range g.backends {
		g.backends[i] = newBackend(ring.Backend(i), i)
		g.wg.Add(1)
		go g.monitor(g.backends[i])
	}
	if g.replication > 1 {
		// Startup audit: the staleness map is in-memory, so a fresh
		// gateway process inherits no memory of which members a
		// previous one knew to be behind. Rediscover it from the
		// backends' own version counters before trusting primaries.
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.audit()
		}()
	}
	return g, nil
}

// Close stops the health probes. In-flight proxied requests are not
// interrupted; the caller shuts the HTTP server down around this.
func (g *Gateway) Close() {
	g.closedMu.Lock()
	defer g.closedMu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	close(g.stop)
	g.wg.Wait()
}

// Ring exposes the routing table, for tests and tooling that need to
// predict placements.
func (g *Gateway) Ring() *Ring { return g.ring }

// Status returns the health of every backend, in ring (configuration)
// order.
func (g *Gateway) Status() []BackendStatus {
	stale := g.staleCounts()
	out := make([]BackendStatus, len(g.backends))
	for i, b := range g.backends {
		out[i] = b.status()
		out[i].StaleDatasets = stale[i]
	}
	return out
}

// healthzResponse is the gateway's own /healthz body. Status is "ok"
// with every backend healthy, "degraded" otherwise — the gateway itself
// keeps serving either way.
type healthzResponse struct {
	Status   string          `json:"status"`
	Backends []BackendStatus `json:"backends"`
}

// listResponse mirrors the daemon's list body; Partial marks a merge
// that could not reach every backend (only then is it present, so a
// fully healthy cluster lists byte-identically to a single daemon).
type listResponse struct {
	Datasets []server.Info `json:"datasets"`
	Partial  bool          `json:"partial,omitempty"`
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	path := req.URL.Path
	switch {
	case path == "/healthz":
		if req.Method != http.MethodGet {
			server.WriteErr(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		g.healthz(w)
	case path == "/v1/datasets":
		if req.Method != http.MethodGet {
			server.WriteErr(w, http.StatusMethodNotAllowed, "use GET; create with PUT /v1/datasets/{name}")
			return
		}
		g.list(w, req)
	case strings.HasPrefix(path, "/v1/datasets/"):
		name := strings.TrimPrefix(path, "/v1/datasets/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if name == "" {
			server.WriteErr(w, http.StatusNotFound, "unknown path")
			return
		}
		g.proxy(w, req, name)
	default:
		server.WriteErr(w, http.StatusNotFound, "unknown path")
	}
}

func (g *Gateway) healthz(w http.ResponseWriter) {
	resp := healthzResponse{Status: "ok", Backends: g.Status()}
	for _, b := range resp.Backends {
		if !b.Healthy {
			resp.Status = "degraded"
			break
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// proxy forwards a dataset-scoped request across the dataset's replica
// set. Reads (GET/HEAD, and quiesce, which has no effect to duplicate)
// are served by the acting primary — the first serveable member — with
// transparent failover to the next member on transport failure, marked
// with the X-Copydetect-Replica header when a non-primary answered.
// Writes are buffered, acknowledged by the acting primary and mirrored
// to the other members asynchronously (replication.go). Only when no
// member of the replica set can serve does the gateway answer 503.
func (g *Gateway) proxy(w http.ResponseWriter, req *http.Request, name string) {
	isRead := req.Method == http.MethodGet || req.Method == http.MethodHead ||
		(req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/quiesce"))
	if isRead {
		g.serveRead(w, req, name)
		return
	}
	g.serveWrite(w, req, name)
}

// serveRead proxies an idempotent request with bounded retries that
// walk the replica set: a transport failure on one member moves on to
// the next instead of failing the client. Request bodies are dropped
// rather than buffered (the daemon never reads them on these
// endpoints), so a retried request never re-reads a consumed body.
func (g *Gateway) serveRead(w http.ResponseWriter, req *http.Request, name string) {
	members := g.ring.ReplicaSet(name, g.replication)
	ds := g.lookupDS(name)
	if ds != nil && strings.HasSuffix(req.URL.Path, "/quiesce") {
		// A quiesce answers for the whole dataset: drain the mirrored
		// appends first, so a quiesce served by a failover replica
		// covers everything the cluster has acknowledged. A drain that
		// does not finish must fail the quiesce — answering "converged"
		// over a stream with mirrors still in flight would be a lie.
		if !g.flush(ds, true) {
			server.WriteErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("cluster: dataset %q is unavailable: replica mirror queue did not drain", name))
			return
		}
	}
	attempts := max(1+retries, len(members))
	reported := make([]bool, len(members))
	var lastErr error
	pos := -1
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && req.Context().Err() != nil {
			break // client gone; stop burning attempts
		}
		next := -1
		for i := 0; i < len(members); i++ {
			cand := (pos + 1 + i) % len(members)
			if g.serveable(ds, members, cand) {
				next = cand
				break
			}
		}
		if next == -1 {
			break
		}
		pos = next
		b := g.backends[members[pos]]
		out, err := newTracedRequest(req.Context(), req.Method,
			b.url+req.URL.RequestURI(), nil, req, "")
		if err != nil {
			server.WriteErr(w, http.StatusInternalServerError, fmt.Sprintf("cluster: %v", err))
			return
		}
		resp, err := g.client.Do(out)
		if err != nil {
			lastErr = err
			g.readRetries.Add(1)
			// One logical request counts at most one failure against a
			// backend, however many retry attempts it burned — otherwise
			// a single retried GET could run through the whole ejection
			// budget and defeat the hysteresis. And a transport failure
			// indicts the backend only if the *client* didn't hang up
			// first: impatient clients must never eject a healthy one.
			if !reported[pos] && req.Context().Err() == nil {
				reported[pos] = true
				b.reportFailure(err)
			}
			continue
		}
		b.reportSuccess(false)
		if pos != 0 {
			w.Header().Set(server.ReplicaHeader, "true")
		}
		relay(w, resp)
		return
	}
	server.WriteErr(w, http.StatusServiceUnavailable,
		fmt.Sprintf("cluster: dataset %q is unavailable: no member of its replica set can serve (last error: %v)", name, lastErr))
}

// serveWrite buffers the request body (it must be re-sendable to every
// member of the replica set), sends the write to the acting primary,
// relays its response, and mirrors an acknowledged write to the other
// members. On a transport failure the write fails over to the next
// member — never back to the same backend, whose partially streamed
// request may or may not have been applied: re-sending there could
// apply the batch twice, while the next member dedupes by sequence
// number even if the failed member turns out to have applied it
// (anti-entropy overwrites the failed member from its peer before it
// serves again). With replication 1 the same path has one member: it
// mirrors nothing and has nowhere to fail over to, so a dead or hung
// owner answers 503.
func (g *Gateway) serveWrite(w http.ResponseWriter, req *http.Request, name string) {
	members := g.ring.ReplicaSet(name, g.replication)
	body, err := io.ReadAll(io.LimitReader(req.Body, maxWriteBody+1))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, fmt.Sprintf("cluster: reading request body: %v", err))
		return
	}
	if len(body) > maxWriteBody {
		server.WriteErr(w, http.StatusRequestEntityTooLarge, "cluster: write body exceeds the size limit")
		return
	}
	ds := g.lockDS(name)
	defer ds.mu.Unlock()
	if strings.HasSuffix(req.URL.Path, "/observations") &&
		atomic.LoadInt64(&ds.queuedJobs) >= mirrorHighWater {
		// Admission control: the dataset's replicas are not keeping up
		// with its mirror stream. Refuse the append before the acting
		// member applies it — queueing further would either block this
		// write on a full channel or grow the backlog without bound.
		g.admissionRejects.Add(1)
		w.Header().Set("Retry-After", "1")
		server.WriteErr(w, http.StatusTooManyRequests, fmt.Sprintf(
			"cluster: dataset %q replica mirror queue is over the high-water mark (%d jobs queued)",
			name, mirrorHighWater))
		return
	}
	var lastErr error
	failedOver := false
	for pos := range members {
		if !g.serveable(ds, members, pos) {
			continue
		}
		if req.Context().Err() != nil {
			break
		}
		if failedOver || (ds.lastActing >= 0 && ds.lastActing != pos) {
			// The acting member changed — failover within this request,
			// or the primary coming back after a failover. The mirror
			// queue may still hold sequenced writes for the new acting
			// member; they must land before a direct (unsequenced) write
			// can be sent there, or the direct write would take their
			// sequence number and fork the members' histories.
			if !g.flush(ds, false) {
				break
			}
		}
		if failedOver {
			// Counted only once the write really goes to another member.
			g.writeFailovers.Add(1)
		}
		// A gateway-side ceiling on the attempt: ds.mu serializes this
		// dataset's writes, so a backend that accepts the connection but
		// never answers must not wedge the dataset forever. A timeout is
		// NOT failed over (the write's fate on a merely-slow member is
		// unknown, and unlike a dead one it may still apply the batch);
		// it answers 503, as a dead owner does at replication 1.
		ctx, cancel := context.WithTimeout(req.Context(), writeTimeout)
		b := g.backends[members[pos]]
		out, err := newTracedRequest(ctx, req.Method,
			b.url+req.URL.RequestURI(), bytes.NewReader(body), req, "")
		if err != nil {
			cancel()
			server.WriteErr(w, http.StatusInternalServerError, fmt.Sprintf("cluster: %v", err))
			return
		}
		out.ContentLength = int64(len(body))
		resp, err := g.client.Do(out)
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
		cancel()
		if err != nil {
			// A transport failure before the headers or a member that
			// died mid-response: either way the write's fate there is
			// unknown, and it counts as one failure and nothing else.
			lastErr = err
			if req.Context().Err() != nil {
				break // the client hung up; stop entirely
			}
			b.reportFailure(err)
			if timedOut {
				break // gateway timeout: slow, not dead — no failover
			}
			failedOver = true
			continue
		}
		b.reportSuccess(false)
		ds.lastActing = pos
		g.afterWrite(ds, req, pos, resp.StatusCode, raw, body)
		if pos != 0 {
			w.Header().Set(server.ReplicaHeader, "true")
		}
		relayBytes(w, resp, raw)
		return
	}
	server.WriteErr(w, http.StatusServiceUnavailable,
		fmt.Sprintf("cluster: dataset %q is unavailable: no member of its replica set can accept the write (last error: %v)", name, lastErr))
}

// exchange is the one way the gateway talks to a backend on its own
// behalf — probes, list fan-outs, version reads, mirrors, anti-entropy:
// build the request with newTracedRequest, bound it by timeout under
// ctx, read the body (at most maxWriteBody bytes) and close it. A
// response that breaks off or overflows is an error like a failed dial:
// the caller gets the whole body or no answer.
func (g *Gateway) exchange(ctx context.Context, timeout time.Duration, method, url, trace string,
	body []byte, hdr http.Header) (int, []byte, error) {

	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := newTracedRequest(ctx, method, url, bytes.NewReader(body), nil, trace)
	if err != nil {
		return 0, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxWriteBody+1))
	if err == nil && len(data) > maxWriteBody {
		err = errors.New("cluster: response body exceeds the size limit")
	}
	return resp.StatusCode, data, err
}

// listAll fetches GET /v1/datasets from every healthy backend
// concurrently under one trace ID; the client's list and the audit share
// it. An entry is nil for a backend that was ejected or gave no
// decodable 200. Health is reported as the proxy reports it: a 200 is a
// success, a failed exchange a failure — unless ctx was canceled first,
// since a fan-out aborted by the client's own cancellation says nothing
// about the backends (and would tick a failure on every one at once).
func (g *Gateway) listAll(ctx context.Context, trace string) []*listResponse {
	out := make([]*listResponse, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		if !b.isHealthy() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			status, body, err := g.exchange(ctx, g.listTimeout, http.MethodGet, b.url+"/v1/datasets", trace, nil, nil)
			if err != nil {
				if ctx.Err() == nil {
					b.reportFailure(err)
				}
				return
			}
			if status != http.StatusOK {
				return
			}
			b.reportSuccess(false)
			var lr listResponse
			if json.Unmarshal(body, &lr) == nil {
				out[i] = &lr
			}
		}(i, b)
	}
	wg.Wait()
	return out
}

// list merges every backend's dataset list, sorted by dataset name —
// the same order a single daemon would produce. Backends that are
// ejected or unreachable are skipped and the response is marked partial.
func (g *Gateway) list(w http.ResponseWriter, req *http.Request) {
	// The client's trace ID only, not its header set: a conditional
	// header (If-None-Match) aimed at the merged list must not leak into
	// the per-backend fetches.
	results := g.listAll(req.Context(), traceOf(req))
	merged := listResponse{Datasets: []server.Info{}}
	// With replication every dataset lives on R backends, so the merge
	// dedupes by name, keeping the info reported by the highest-priority
	// member of the name's replica set that answered — the acting
	// primary's numbers when it is up, a replica's during failover.
	rank := make(map[string]int)
	byName := make(map[string]server.Info)
	for i, r := range results {
		if r == nil {
			merged.Partial = true
			continue
		}
		for _, inf := range r.Datasets {
			pos := len(g.backends)
			for p, m := range g.ring.ReplicaSet(inf.Name, g.replication) {
				if m == i {
					pos = p
					break
				}
			}
			if prev, seen := rank[inf.Name]; !seen || pos < prev {
				rank[inf.Name] = pos
				byName[inf.Name] = inf
			}
		}
	}
	for _, inf := range byName {
		merged.Datasets = append(merged.Datasets, inf)
	}
	sort.Slice(merged.Datasets, func(a, b int) bool {
		return merged.Datasets[a].Name < merged.Datasets[b].Name
	})
	server.WriteJSON(w, http.StatusOK, merged)
}

// relay copies a backend response to the client verbatim: status,
// headers (ETag included) and body bytes.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// relayBytes relays a response whose body the gateway already consumed
// (the write path reads it to learn the acknowledged version).
func relayBytes(w http.ResponseWriter, resp *http.Response, body []byte) {
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// hopByHop are the connection-scoped headers a proxy must not forward
// (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	for _, k := range hopByHop {
		dst.Del(k)
	}
}
