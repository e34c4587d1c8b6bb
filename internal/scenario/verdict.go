package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Verdict is the machine-readable outcome of one scenario run: what
// the executor did (per phase), what the target exposed (/metrics
// boundary scrapes), how fast it converged, how well detection scored
// against the planted truth, and whether every SLO held. It is the
// artifact CI archives and the soak tests assert against.
type Verdict struct {
	Scenario     string  `json:"scenario"`
	Target       string  `json:"target"`
	Datasets     int     `json:"datasets"`
	Observations int     `json:"observations"` // total generated across datasets
	WallSeconds  float64 `json:"wallSeconds"`

	Phases []PhaseReport `json:"phases"`

	// QuiesceSeconds is the post-run drive to convergence: the
	// operational convergence-lag bound once load stops.
	// QuiesceErrors counts datasets the harness failed to quiesce; any
	// fails the verdict the same way a transport error does.
	QuiesceSeconds float64 `json:"quiesceSeconds"`
	QuiesceErrors  int     `json:"quiesceErrors,omitempty"`

	// Quality scores the detected copying pairs against the planted
	// copier cliques (absent when the run could not read results).
	Quality *Quality `json:"quality,omitempty"`

	// Checks are the evaluated SLO assertions; Pass is their
	// conjunction AND the absence of transport-level errors.
	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`
}

// PhaseReport is the measured execution of one phase.
type PhaseReport struct {
	Name         string  `json:"name"`
	TargetRate   float64 `json:"targetRate,omitempty"`
	AchievedRate float64 `json:"achievedRate"`
	Seconds      float64 `json:"seconds"`
	Appends      int     `json:"appends"`
	Observations int     `json:"observations"`
	Reads        int     `json:"reads,omitempty"`
	// Throttled counts 429 refusals (backpressure — each refused batch
	// was retried in place and landed exactly once).
	Throttled int `json:"throttled"`
	// Errors5xx counts 5xx responses the executor saw; OtherErrors
	// counts transport failures, non-5xx refusals and abandoned
	// streams.
	Errors5xx   int      `json:"errors5xx"`
	OtherErrors int      `json:"otherErrors"`
	Injected    []string `json:"injected,omitempty"`
	// Starved marks a phase that ran out of generated data before its
	// deadline: the achieved rate then measures the workload, not the
	// target, so rated SLO checks fail it explicitly.
	Starved bool          `json:"starved,omitempty"`
	Latency *LatencyStats `json:"appendLatency,omitempty"`
	// Scrape is the /metrics boundary scrape taken when the phase
	// ended.
	Scrape *ScrapeReport `json:"scrape,omitempty"`
}

// ScrapeReport condenses the phase-boundary /metrics scrapes of every
// scrape target.
type ScrapeReport struct {
	// Targets is how many endpoints were scraped; Samples the total
	// parsed exposition lines (every line must parse — a malformed
	// line fails the scrape).
	Targets int `json:"targets"`
	Samples int `json:"samples"`
	// HTTP5xx is the cumulative server-side count of 5xx responses
	// across targets; HTTP5xxDelta the increase during this phase.
	HTTP5xx      float64 `json:"http5xx"`
	HTTP5xxDelta float64 `json:"http5xxDelta"`
	// MaxConvergenceLagAppends is the worst per-dataset convergence
	// lag (in appends) any scraped backend reported at the boundary.
	MaxConvergenceLagAppends float64 `json:"maxConvergenceLagAppends"`
	// Error records a failed scrape (the run continues; the SLO layer
	// treats a failed scrape during an asserted phase as a failure).
	Error string `json:"error,omitempty"`
}

// LatencyStats summarizes a latency sample in milliseconds.
type LatencyStats struct {
	P50Millis  float64 `json:"p50Millis"`
	P90Millis  float64 `json:"p90Millis"`
	P99Millis  float64 `json:"p99Millis"`
	MaxMillis  float64 `json:"maxMillis"`
	MeanMillis float64 `json:"meanMillis"`
}

// Quality scores detection against the planted truth, micro-averaged
// across datasets: recall over the direct copier→origin pairs
// (gen.Planted.Pairs), precision against the clique closure
// (gen.Planted.Closure) — a detected copier–copier pair inside one
// clique is transitive, not false.
type Quality struct {
	DetectedPairs int `json:"detectedPairs"`
	PlantedPairs  int `json:"plantedPairs"`
	// TruePosDirect is |detected ∩ planted|; TruePosClique is
	// |detected ∩ closure|.
	TruePosDirect int     `json:"truePosDirect"`
	TruePosClique int     `json:"truePosClique"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	// Algorithms are the detection algorithms that produced the scored
	// rounds, as the daemon's `algorithm` field names them.
	Algorithms []string         `json:"algorithms,omitempty"`
	PerDataset []DatasetQuality `json:"perDataset,omitempty"`
}

// DatasetQuality is one dataset's slice of the quality score.
type DatasetQuality struct {
	Dataset       string `json:"dataset"`
	Algorithm     string `json:"algorithm,omitempty"`
	Detected      int    `json:"detected"`
	Planted       int    `json:"planted"`
	TruePosDirect int    `json:"truePosDirect"`
	TruePosClique int    `json:"truePosClique"`
}

// Check is one evaluated SLO assertion.
type Check struct {
	// Name identifies the assertion: rate, p99-append, zero-5xx,
	// quiesce, precision, recall.
	Name string `json:"name"`
	// Phase scopes per-phase checks.
	Phase  string  `json:"phase,omitempty"`
	Limit  float64 `json:"limit"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
	Detail string  `json:"detail,omitempty"`
}

// DefaultRateTolerance is the rate-following tolerance when the SLO
// does not override it.
const DefaultRateTolerance = 0.10

// evaluate runs every SLO assertion against the measured verdict and
// fills Checks and Pass. A nil SLO asserts nothing; Pass then only
// requires the run itself to have been error-free.
func (v *Verdict) evaluate(slo *SLO) {
	v.Checks = []Check{}
	errFree := v.QuiesceErrors == 0
	for _, p := range v.Phases {
		if p.OtherErrors > 0 {
			errFree = false
		}
	}
	if slo != nil {
		tol := slo.RateTolerance
		if tol == 0 {
			tol = DefaultRateTolerance
		}
		for i := range v.Phases {
			p := &v.Phases[i]
			if p.TargetRate > 0 {
				dev := math.Abs(p.AchievedRate-p.TargetRate) / p.TargetRate
				v.Checks = append(v.Checks, Check{
					Name: "rate", Phase: p.Name,
					Limit: tol, Actual: dev,
					Pass:   dev <= tol && !p.Starved,
					Detail: fmt.Sprintf("achieved %.1f of target %.1f batches/s", p.AchievedRate, p.TargetRate),
				})
			}
			// Unpaced phases (including the synthetic drain) run at full
			// throttle, so their latency measures queueing by design; the
			// p99 bound is asserted only where a target rate paces load.
			if slo.P99AppendMillis > 0 && p.Latency != nil && p.TargetRate > 0 {
				v.Checks = append(v.Checks, Check{
					Name: "p99-append", Phase: p.Name,
					Limit: slo.P99AppendMillis, Actual: p.Latency.P99Millis,
					Pass: p.Latency.P99Millis <= slo.P99AppendMillis,
				})
			}
			if slo.Zero5xxDuringKill && len(p.Injected) > 0 {
				actual := float64(p.Errors5xx)
				detail := "executor-observed 5xx"
				if p.Scrape != nil && p.Scrape.Error == "" {
					// The scraped server-side counter is the stronger
					// witness: it counts every 5xx the target served,
					// including responses the executor never saw.
					if p.Scrape.HTTP5xxDelta > actual {
						actual = p.Scrape.HTTP5xxDelta
						detail = "scraped server-side 5xx delta"
					}
				} else {
					detail = "executor-observed 5xx (boundary scrape failed)"
				}
				v.Checks = append(v.Checks, Check{
					Name: "zero-5xx", Phase: p.Name,
					Limit: 0, Actual: actual,
					Pass:   actual == 0 && (p.Scrape == nil || p.Scrape.Error == ""),
					Detail: detail,
				})
			}
		}
		if slo.QuiesceSeconds > 0 {
			v.Checks = append(v.Checks, Check{
				Name:  "quiesce",
				Limit: slo.QuiesceSeconds, Actual: v.QuiesceSeconds,
				Pass: v.QuiesceSeconds > 0 && v.QuiesceSeconds <= slo.QuiesceSeconds,
			})
		}
		if slo.MinPrecision > 0 {
			c := Check{Name: "precision", Limit: slo.MinPrecision}
			if v.Quality != nil {
				c.Actual = v.Quality.Precision
				c.Pass = c.Actual >= slo.MinPrecision
			}
			v.Checks = append(v.Checks, c)
		}
		if slo.MinRecall > 0 {
			c := Check{Name: "recall", Limit: slo.MinRecall}
			if v.Quality != nil {
				c.Actual = v.Quality.Recall
				c.Pass = c.Actual >= slo.MinRecall
			}
			v.Checks = append(v.Checks, c)
		}
	}
	v.Pass = errFree
	for _, c := range v.Checks {
		if !c.Pass {
			v.Pass = false
		}
	}
}

// summarizeLatency reduces a sample to percentiles, nil when empty (a
// phase with no successful appends has no latency distribution).
func summarizeLatency(samples []time.Duration) *LatencyStats {
	if len(samples) == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	return &LatencyStats{
		P50Millis:  ms(quantile(sorted, 0.50)),
		P90Millis:  ms(quantile(sorted, 0.90)),
		P99Millis:  ms(quantile(sorted, 0.99)),
		MaxMillis:  ms(sorted[len(sorted)-1]),
		MeanMillis: ms(sum / time.Duration(len(sorted))),
	}
}

// quantile is the nearest-rank q-quantile of sorted, clamped into the
// sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
