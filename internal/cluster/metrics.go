package cluster

import (
	"sync/atomic"

	"copydetect/internal/telemetry"
)

// RegisterMetrics exposes the gateway's operational state on t under
// the copygate_ prefix: per-backend health and replication lag, the
// aggregate mirror-queue depth in jobs and bytes, ring ownership of the
// datasets the gateway is tracking, and the retry/failover/admission
// counters the proxy paths maintain. Call it once, before serving
// /metrics.
func (g *Gateway) RegisterMetrics(t *telemetry.Registry) {
	t.GaugeFunc("copygate_backend_healthy",
		"Whether the gateway considers the backend serveable (1) or ejected (0).",
		[]string{"backend"},
		func(emit func(float64, ...string)) {
			for _, b := range g.backends {
				v := 0.0
				if b.isHealthy() {
					v = 1
				}
				emit(v, b.url)
			}
		})
	t.GaugeFunc("copygate_backend_stale_datasets",
		"Datasets the backend is known to be behind on, awaiting anti-entropy.",
		[]string{"backend"},
		func(emit func(float64, ...string)) {
			stale := g.staleCounts()
			for i, b := range g.backends {
				emit(float64(stale[i]), b.url)
			}
		})
	t.GaugeFunc("copygate_mirror_queue_depth",
		"Replica mirror jobs enqueued or in delivery, across all datasets.", nil,
		func(emit func(float64, ...string)) {
			var jobs int64
			for _, ds := range g.snapshotDS() {
				jobs += atomic.LoadInt64(&ds.queuedJobs)
			}
			emit(float64(jobs))
		})
	t.GaugeFunc("copygate_mirror_queue_bytes",
		"Write-body bytes parked in replica mirror queues, across all datasets.", nil,
		func(emit func(float64, ...string)) {
			var bytes int64
			for _, ds := range g.snapshotDS() {
				bytes += atomic.LoadInt64(&ds.queuedBytes)
			}
			emit(float64(bytes))
		})
	t.GaugeFunc("copygate_ring_owned_datasets",
		"Tracked datasets whose ring owner is the backend (state exists for datasets known to exist, and for those that owe replication work).",
		[]string{"backend"},
		func(emit func(float64, ...string)) {
			owned := make([]int, len(g.backends))
			for _, ds := range g.snapshotDS() {
				if len(ds.members) > 0 {
					owned[ds.members[0]]++
				}
			}
			for i, b := range g.backends {
				emit(float64(owned[i]), b.url)
			}
		})
	t.CounterFunc("copygate_read_retries_total",
		"Read attempts repeated after a transport failure on a replica-set member.", nil,
		func(emit func(float64, ...string)) { emit(float64(g.readRetries.Load())) })
	t.CounterFunc("copygate_write_failovers_total",
		"Writes moved off the acting member to the next replica after a failure.", nil,
		func(emit func(float64, ...string)) { emit(float64(g.writeFailovers.Load())) })
	t.CounterFunc("copygate_admission_rejections_total",
		"Appends refused with 429 because a dataset's mirror queue exceeded the high-water mark.", nil,
		func(emit func(float64, ...string)) { emit(float64(g.admissionRejects.Load())) })
}
