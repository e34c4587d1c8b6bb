// Package scenario is copyload's workload engine, the only code that
// streams appends at a daemon: a JSON spec names phases (duration,
// target rate, client mix, bursts, failure injections), the synthetic
// datasets they stream (gen presets with Scale factors, zipfian
// popularity, source churn, and the planted copier cliques that come
// with them), and the SLOs a run must hold. The executor follows the
// phases against a copydetectd daemon or a copygate cluster, scrapes
// /metrics at phase boundaries, quiesces, scores detection quality
// against the planted truth, and emits a machine-readable verdict —
// the soak harness that converts "survives our four tests" into
// "provable against any workload we can describe in a file".
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"copydetect/internal/gen"
)

// Duration is a time.Duration that marshals as the human string form
// ("250ms", "5s") a scenario file uses.
type Duration struct{ time.Duration }

// UnmarshalJSON accepts either a duration string or a number of
// nanoseconds (the raw Go encoding), so specs round-trip.
func (d *Duration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		d.Duration = dd
		return nil
	}
	var n int64
	if err := json.Unmarshal(raw, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"5s\": got %s", raw)
	}
	d.Duration = time.Duration(n)
	return nil
}

// MarshalJSON renders the string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// Spec is one declarative scenario: what to stream, in which phases,
// and which SLOs the run must hold.
type Spec struct {
	// Name labels the verdict.
	Name string `json:"name"`
	// Datasets declares the synthetic workloads, in groups. Dataset i
	// (across all groups, in declaration order) is named
	// "<prefix>-<i>".
	Datasets []DatasetGroup `json:"datasets"`
	// Zipf skews dataset popularity: the probability that the next
	// batch goes to dataset rank i is ∝ 1/(i+1)^Zipf (rank = declaration
	// order, so earlier datasets are hotter). 0 = uniform.
	Zipf float64 `json:"zipf,omitempty"`
	// Batch is the number of observations per append (default 500).
	Batch int `json:"batch,omitempty"`
	// Phases run in order; the scenario ends after the last one.
	Phases []Phase `json:"phases"`
	// SLO, when present, is asserted after the run (a -slo file
	// overrides it).
	SLO *SLO `json:"slo,omitempty"`
}

// DatasetGroup declares Count datasets generated from one gen preset.
type DatasetGroup struct {
	// Count is the number of datasets in the group (default 1).
	Count int `json:"count,omitempty"`
	// Preset names the generator configuration: book-cs, book-full,
	// stock-1day or stock-2wk.
	Preset string `json:"preset"`
	// Scale is the gen.Scale factor applied to the preset (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Seed is the base RNG seed; dataset j of the group uses Seed+j.
	Seed int64 `json:"seed"`
	// Prefix overrides the default dataset name prefix "scn".
	Prefix string `json:"prefix,omitempty"`
	// Churn, when present, holds back a late cohort of sources and
	// streams them in waves (gen.ChurnRecords), so new feeds join
	// mid-run while exhausted early feeds go quiet.
	Churn *Churn `json:"churn,omitempty"`
}

// Churn configures source churn for a dataset group.
type Churn struct {
	// Waves is the total number of join cohorts (>= 2 to churn).
	Waves int `json:"waves"`
	// LateFraction of the sources are held back for waves 1..Waves-1.
	LateFraction float64 `json:"lateFraction"`
}

// Phase is one load regime.
type Phase struct {
	Name string `json:"name"`
	// Duration bounds the phase in wall time; 0 runs it until every
	// stream is exhausted.
	Duration Duration `json:"duration"`
	// Rate is the target append rate in batches/second across all
	// clients (0 = as fast as the target absorbs).
	Rate float64 `json:"rate,omitempty"`
	// Clients is the number of concurrent client connections (default
	// 4). Each dataset is owned by exactly one client per phase, so
	// appends stay sequential.
	Clients int `json:"clients,omitempty"`
	// Reads is the average number of detection reads (GET /copies)
	// issued per successful append, exercising the read path alongside
	// the write path. 0 = write-only.
	Reads float64 `json:"reads,omitempty"`
	// Burst superimposes periodic rate spikes on Rate.
	Burst *Burst `json:"burst,omitempty"`
	// Inject schedules failure injections at offsets into the phase.
	Inject []InjectStep `json:"inject,omitempty"`
}

// Burst periodically multiplies the phase rate: for Length out of
// every Every, the target rate is Rate*Factor.
type Burst struct {
	Every  Duration `json:"every"`
	Length Duration `json:"length"`
	Factor float64  `json:"factor"`
}

// InjectStep is one failure injection, dispatched to the embedder's
// Injector at offset At into the phase. The engine defines the shape;
// what an action means is up to the injector (cmd/copyload's kills or
// pauses backend processes by PID, the cluster e2e kills its child
// processes directly).
type InjectStep struct {
	// At is the offset into the phase.
	At Duration `json:"at"`
	// Action names the injection: kill-backend, pause-backend,
	// resume-backend, or exec.
	Action string `json:"action"`
	// Backend indexes the backend the action targets (for the
	// *-backend actions).
	Backend int `json:"backend,omitempty"`
	// Cmd is the argv for the exec action.
	Cmd []string `json:"cmd,omitempty"`
}

// SLO declares the bounds a run must hold. Zero-valued fields are not
// asserted.
type SLO struct {
	// P99AppendMillis bounds the per-phase p99 append latency.
	P99AppendMillis float64 `json:"p99AppendMillis,omitempty"`
	// Zero5xxDuringKill asserts that phases containing inject steps
	// surface zero 5xx responses — both as observed by the executor and
	// as counted by the scraped server-side request counters. 429s are
	// backpressure, allowed and tallied separately.
	Zero5xxDuringKill bool `json:"zero5xxDuringKill,omitempty"`
	// QuiesceSeconds bounds the post-run drive to convergence
	// (convergence lag: how far behind detection is allowed to be once
	// the load stops).
	QuiesceSeconds float64 `json:"quiesceSeconds,omitempty"`
	// MinPrecision/MinRecall bound detection quality against the
	// planted copier truth: recall over the direct copier→origin pairs,
	// precision against the clique closure (an intra-clique
	// copier–copier detection is transitive, not false).
	MinPrecision float64 `json:"minPrecision,omitempty"`
	MinRecall    float64 `json:"minRecall,omitempty"`
	// RateTolerance is the allowed relative deviation of a rated
	// phase's achieved append rate from its target (default 0.10).
	RateTolerance float64 `json:"rateTolerance,omitempty"`
}

// knownActions is the validation set for InjectStep.Action.
var knownActions = map[string]bool{
	"kill-backend":   true,
	"pause-backend":  true,
	"resume-backend": true,
	"exec":           true,
}

// Load reads and validates a scenario file.
func Load(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(raw)
}

// Parse decodes and validates a scenario spec.
func Parse(raw []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSLO reads an SLO block from its own file (the -slo flag).
func LoadSLO(path string) (*SLO, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var s SLO
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("scenario: slo %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the spec and fills no defaults (the executor applies
// them at run time, so a marshaled spec stays what was written).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(s.Datasets) == 0 {
		return fmt.Errorf("scenario: at least one dataset group is required")
	}
	for i, g := range s.Datasets {
		if g.Count < 0 {
			return fmt.Errorf("scenario: dataset group %d: count must be >= 0", i)
		}
		if _, err := gen.Preset(g.Preset, 0); err != nil {
			return fmt.Errorf("scenario: dataset group %d: %w", i, err)
		}
		if g.Scale < 0 {
			return fmt.Errorf("scenario: dataset group %d: scale must be >= 0", i)
		}
		if c := g.Churn; c != nil {
			if c.Waves < 2 {
				return fmt.Errorf("scenario: dataset group %d: churn needs waves >= 2", i)
			}
			if c.LateFraction <= 0 || c.LateFraction >= 1 {
				return fmt.Errorf("scenario: dataset group %d: churn lateFraction must be in (0,1)", i)
			}
		}
	}
	if s.Zipf < 0 {
		return fmt.Errorf("scenario: zipf must be >= 0")
	}
	if s.Batch < 0 {
		return fmt.Errorf("scenario: batch must be >= 0")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario: at least one phase is required")
	}
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("scenario: phase %d: name is required", i)
		}
		if p.Duration.Duration < 0 {
			return fmt.Errorf("scenario: phase %q: duration must be >= 0", p.Name)
		}
		if p.Rate < 0 || p.Rate > 1e6 {
			return fmt.Errorf("scenario: phase %q: rate must be between 0 and 1e6", p.Name)
		}
		if p.Clients < 0 {
			return fmt.Errorf("scenario: phase %q: clients must be >= 0", p.Name)
		}
		if p.Reads < 0 {
			return fmt.Errorf("scenario: phase %q: reads must be >= 0", p.Name)
		}
		if b := p.Burst; b != nil {
			if p.Rate <= 0 {
				return fmt.Errorf("scenario: phase %q: burst needs a base rate", p.Name)
			}
			if b.Every.Duration <= 0 || b.Length.Duration <= 0 || b.Length.Duration > b.Every.Duration {
				return fmt.Errorf("scenario: phase %q: burst needs 0 < length <= every", p.Name)
			}
			if b.Factor <= 0 {
				return fmt.Errorf("scenario: phase %q: burst factor must be positive", p.Name)
			}
		}
		for j, st := range p.Inject {
			if !knownActions[st.Action] {
				return fmt.Errorf("scenario: phase %q inject %d: unknown action %q", p.Name, j, st.Action)
			}
			if st.At.Duration < 0 || (p.Duration.Duration > 0 && st.At.Duration > p.Duration.Duration) {
				return fmt.Errorf("scenario: phase %q inject %d: at outside the phase", p.Name, j)
			}
			if st.Action == "exec" && len(st.Cmd) == 0 {
				return fmt.Errorf("scenario: phase %q inject %d: exec needs cmd", p.Name, j)
			}
			if st.Action != "exec" && st.Backend < 0 {
				return fmt.Errorf("scenario: phase %q inject %d: backend must be >= 0", p.Name, j)
			}
		}
	}
	if s.SLO != nil {
		if err := s.SLO.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s *SLO) validate() error {
	if s.P99AppendMillis < 0 || s.QuiesceSeconds < 0 || s.RateTolerance < 0 {
		return fmt.Errorf("scenario: slo bounds must be >= 0")
	}
	if s.MinPrecision < 0 || s.MinPrecision > 1 || s.MinRecall < 0 || s.MinRecall > 1 {
		return fmt.Errorf("scenario: slo precision/recall bounds must be in [0,1]")
	}
	return nil
}

// TotalDatasets is the number of datasets the spec declares.
func (s *Spec) TotalDatasets() int {
	n := 0
	for _, g := range s.Datasets {
		n += g.groupCount()
	}
	return n
}

func (g *DatasetGroup) groupCount() int {
	if g.Count == 0 {
		return 1
	}
	return g.Count
}
