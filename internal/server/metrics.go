package server

import (
	"time"

	"copydetect/internal/telemetry"
)

// instruments are the owned metrics the hot paths update. They live
// behind an atomic pointer on the Registry because metrics registration
// happens after Open (which may already be appending during recovery):
// the hooks check the pointer at call time and cost one atomic load
// when telemetry is off.
type instruments struct {
	roundDuration   *telemetry.HistogramVec // algorithm
	roundsTotal     *telemetry.CounterVec   // algorithm
	roundComps      *telemetry.CounterVec   // algorithm
	roundValues     *telemetry.CounterVec   // algorithm
	roundsAbandoned *telemetry.Counter
	walAppend       *telemetry.Histogram
	walFsync        *telemetry.Histogram
	admissionRej    *telemetry.Counter
}

// RegisterMetrics exposes the registry's operational state on t under
// the copydetectd_ prefix: scheduler queue depth, in-flight rounds,
// per-dataset convergence lag (both in pending appends and in seconds),
// round durations, counts and detector work by algorithm (the work
// counters are the benchmark ledger's core.computations and
// core.values_examined), abandoned rounds, WAL append/fsync latency, and
// admission rejections. Call it once, before serving /metrics.
func (r *Registry) RegisterMetrics(t *telemetry.Registry) {
	t.GaugeFunc("copydetectd_datasets",
		"Datasets currently registered.", nil,
		r.countWhere(func(*Managed) bool { return true }))
	t.GaugeFunc("copydetectd_scheduler_queue_depth",
		"Datasets dirty and waiting for (or re-queued behind) a detection round.", nil,
		r.countWhere(func(m *Managed) bool { return m.dirty }))
	t.GaugeFunc("copydetectd_rounds_inflight",
		"Detection rounds currently running.", nil,
		r.countWhere(func(m *Managed) bool { return m.running }))
	t.GaugeFunc("copydetectd_dataset_convergence_lag_appends",
		"Appends accepted but not yet covered by the published round, per dataset.",
		[]string{"dataset"},
		r.perDataset(func(m *Managed) float64 { return float64(m.lagLocked()) }))
	t.GaugeFunc("copydetectd_dataset_convergence_lag_seconds",
		"Age of the oldest append not yet covered by a completed round, per dataset (0 when converged).",
		[]string{"dataset"},
		r.perDataset(func(m *Managed) float64 {
			if m.convergedLocked() || m.lagSince.IsZero() {
				return 0
			}
			return time.Since(m.lagSince).Seconds()
		}))

	in := &instruments{
		roundDuration: t.HistogramVec("copydetectd_round_duration_seconds",
			"End-to-end detection round duration, by algorithm.",
			telemetry.RoundBuckets, "algorithm"),
		roundsTotal: t.CounterVec("copydetectd_rounds_total",
			"Published detection rounds, by algorithm.", "algorithm"),
		roundComps: t.CounterVec("copydetectd_round_computations_total",
			"Score computations (core.Stats.Computations) of published detection rounds, by algorithm.", "algorithm"),
		roundValues: t.CounterVec("copydetectd_round_values_examined_total",
			"Shared values examined (core.Stats.ValuesExamined) by published detection rounds, by algorithm.", "algorithm"),
		roundsAbandoned: t.Counter("copydetectd_rounds_abandoned_total",
			"Detection rounds that ended without publishing: cancelled by an append, or finished on a snapshot an append had outdated."),
		walAppend: t.Histogram("copydetectd_wal_append_seconds",
			"WAL append latency (frame write plus any fsync).", nil),
		walFsync: t.Histogram("copydetectd_wal_fsync_seconds",
			"WAL fsync latency within appends (only observed with fsync on).", nil),
		admissionRej: t.Counter("copydetectd_admission_rejections_total",
			"Appends rejected with 429 because convergence lag exceeded the high-water mark."),
	}
	r.inst.Store(in)
}

// countWhere is a gauge collector: the number of datasets satisfying
// pred, evaluated under each dataset's lock.
func (r *Registry) countWhere(pred func(m *Managed) bool) func(emit func(float64, ...string)) {
	return func(emit func(float64, ...string)) {
		n := 0
		for _, m := range r.datasets() {
			m.mu.Lock()
			if pred(m) {
				n++
			}
			m.mu.Unlock()
		}
		emit(float64(n))
	}
}

// perDataset is a gauge collector labelled by dataset: value is
// evaluated under each dataset's lock.
func (r *Registry) perDataset(value func(m *Managed) float64) func(emit func(float64, ...string)) {
	return func(emit func(float64, ...string)) {
		for _, m := range r.datasets() {
			m.mu.Lock()
			v := value(m)
			m.mu.Unlock()
			emit(v, m.name)
		}
	}
}

// observeWAL is the wal.Options.ObserveAppend hook for every dataset
// store of this registry. It must stay cheap: it runs under the WAL
// lock on the acknowledgement path.
//
//copydetect:hotpath
func (r *Registry) observeWAL(total, fsync time.Duration) {
	in := r.inst.Load()
	if in == nil {
		return
	}
	in.walAppend.Observe(total.Seconds())
	if fsync > 0 {
		in.walFsync.Observe(fsync.Seconds())
	}
}
