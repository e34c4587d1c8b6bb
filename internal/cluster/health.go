package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// BackendStatus is the externally visible health of one backend, as
// reported by the gateway's /healthz endpoint.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures counts probe/request failures since the last
	// success; ConsecutiveSuccesses counts probe successes since the
	// last failure while ejected (progress toward readmission).
	ConsecutiveFailures  int    `json:"consecutiveFailures,omitempty"`
	ConsecutiveSuccesses int    `json:"consecutiveSuccesses,omitempty"`
	LastError            string `json:"lastError,omitempty"`
	// StaleDatasets counts datasets this backend is known to be behind
	// on (replication lag awaiting anti-entropy); such datasets are not
	// served from this backend even while it is healthy.
	StaleDatasets int `json:"staleDatasets,omitempty"`
}

// The hysteresis thresholds of backend's state machine: the smallest at
// which a single flaky probe neither ejects nor readmits.
const (
	ejectAfter   = 2
	readmitAfter = 2
)

// backend tracks one copydetectd replica's health. The state machine
// has two states, healthy and ejected, with hysteresis in both
// directions so a single flaky probe neither ejects nor readmits:
//
//	healthy --[ejectAfter consecutive failures]--> ejected
//	ejected --[readmitAfter consecutive probe successes]--> healthy
//
// Failures are reported both by the prober and by the request paths —
// proxied requests and the list fan-out the audit shares (a request
// that cannot reach the backend, or whose response breaks off, is as
// good a signal as a failed probe); their successes reset the failure
// streak.
// Readmission, however, is driven only by probes: the proxy never
// sends requests to an ejected backend, so probes are the only way
// back.
type backend struct {
	url string // base URL, no trailing slash
	idx int    // position in the gateway's backend list

	admissions atomic.Uint64 // readmissions; each unresolves b's datasets

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive failures (any source)
	oks     int // consecutive probe successes while ejected
	lastErr string
}

func newBackend(url string, idx int) *backend {
	// Backends start healthy: the gateway is useful immediately, and a
	// dead backend is ejected within ejectAfter probe periods (or on
	// the first failed requests).
	return &backend{url: url, idx: idx, healthy: true}
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// reportSuccess records a successful probe or proxied request. It
// reports whether this success readmitted the backend (the
// ejected→healthy transition), which is the gateway's cue to audit
// what the backend missed while it was away.
func (b *backend) reportSuccess(probe bool) (readmitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.lastErr = ""
	if b.healthy {
		return false
	}
	if !probe {
		return false // proxy requests are never sent while ejected; ignore stragglers
	}
	b.oks++
	if b.oks >= readmitAfter {
		b.healthy = true
		b.admissions.Add(1)
		b.oks = 0
		return true
	}
	return false
}

// reportFailure records a failed probe or proxied request.
func (b *backend) reportFailure(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.oks = 0
	b.fails++
	if err != nil {
		b.lastErr = err.Error()
	}
	if b.healthy && b.fails >= ejectAfter {
		b.healthy = false
	}
}

func (b *backend) status() BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{
		URL:                  b.url,
		Healthy:              b.healthy,
		ConsecutiveFailures:  b.fails,
		ConsecutiveSuccesses: b.oks,
		LastError:            b.lastErr,
	}
}

// monitor probes the backend's /healthz every probeEvery until stop
// closes. One goroutine per backend; the first tick fires after one
// period, which is fine because backends start healthy.
func (g *Gateway) monitor(b *backend) {
	defer g.wg.Done()
	ticker := time.NewTicker(g.probeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
		}
		g.probe(b)
	}
}

// probe performs one health check against the backend.
func (g *Gateway) probe(b *backend) {
	status, _, err := g.exchange(context.Background(), g.probeTimeout, http.MethodGet, b.url+"/healthz", "", nil, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("cluster: probe status %d", status)
	}
	if err != nil {
		b.reportFailure(err)
		return
	}
	if b.reportSuccess(true) {
		// Readmission: the backend may have lost its disk, or missed
		// writes while it was away. Every dataset it is a member of is
		// unresolved now (its admissions count moved) and is judged
		// again by its next touch or by this audit, whichever is first.
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.audit()
		}()
	}
	if b.isHealthy() && g.staleTotal.Load() > 0 {
		// A healthy probe is the anti-entropy heartbeat: it re-arms the
		// catch-up of any dataset this backend is behind on — in
		// particular right after readmission, when the backend rejoins
		// with whatever it missed while it was down. The aggregate
		// counter keeps the steady state (nothing stale anywhere) from
		// scanning the dataset map on every probe.
		g.triggerReconciles(b.idx)
	}
}
