package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestDurationUnmarshal(t *testing.T) {
	cases := []struct {
		raw  string
		want time.Duration
		err  bool
	}{
		{`"5s"`, 5 * time.Second, false},
		{`"250ms"`, 250 * time.Millisecond, false},
		{`1500000000`, 1500 * time.Millisecond, false}, // raw nanoseconds
		{`"bogus"`, 0, true},
		{`true`, 0, true},
	}
	for _, c := range cases {
		var d Duration
		err := json.Unmarshal([]byte(c.raw), &d)
		if c.err != (err != nil) {
			t.Errorf("unmarshal %s: err=%v, want err=%t", c.raw, err, c.err)
		}
		if err == nil && d.Duration != c.want {
			t.Errorf("unmarshal %s: got %v, want %v", c.raw, d.Duration, c.want)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := Duration{1500 * time.Millisecond}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(raw) != `"1.5s"` {
		t.Fatalf("marshal: got %s", raw)
	}
	var back Duration
	if err := json.Unmarshal(raw, &back); err != nil || back != d {
		t.Fatalf("round trip: got %v, %v", back, err)
	}
}

// validSpec returns a minimal spec that passes validation; tests mutate
// one field at a time to probe each check.
func validSpec() *Spec {
	return &Spec{
		Name: "t",
		Datasets: []DatasetGroup{
			{Preset: "stock-1day", Scale: 0.02, Seed: 1},
		},
		Phases: []Phase{
			{Name: "p", Duration: Duration{time.Second}, Rate: 5},
		},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // substring; "" = valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"no name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"no datasets", func(s *Spec) { s.Datasets = nil }, "dataset group"},
		{"bad preset", func(s *Spec) { s.Datasets[0].Preset = "nope" }, "unknown preset"},
		{"negative scale", func(s *Spec) { s.Datasets[0].Scale = -1 }, "scale"},
		{"churn one wave", func(s *Spec) {
			s.Datasets[0].Churn = &Churn{Waves: 1, LateFraction: 0.5}
		}, "waves >= 2"},
		{"churn bad fraction", func(s *Spec) {
			s.Datasets[0].Churn = &Churn{Waves: 3, LateFraction: 1.5}
		}, "lateFraction"},
		{"negative zipf", func(s *Spec) { s.Zipf = -1 }, "zipf"},
		{"no phases", func(s *Spec) { s.Phases = nil }, "phase is required"},
		{"unnamed phase", func(s *Spec) { s.Phases[0].Name = "" }, "name is required"},
		{"zero duration", func(s *Spec) { s.Phases[0].Duration = Duration{} }, ""}, // until exhaustion
		{"negative duration", func(s *Spec) { s.Phases[0].Duration = Duration{-time.Second} }, "duration"},
		{"inject into untimed phase", func(s *Spec) {
			s.Phases[0].Duration = Duration{}
			s.Phases[0].Inject = []InjectStep{{At: Duration{time.Minute}, Action: "kill-backend"}}
		}, ""},
		{"huge rate", func(s *Spec) { s.Phases[0].Rate = 2e6 }, "rate"},
		{"burst without rate", func(s *Spec) {
			s.Phases[0].Rate = 0
			s.Phases[0].Burst = &Burst{Every: Duration{time.Second}, Length: Duration{time.Second / 2}, Factor: 2}
		}, "burst needs a base rate"},
		{"burst longer than window", func(s *Spec) {
			s.Phases[0].Burst = &Burst{Every: Duration{time.Second}, Length: Duration{2 * time.Second}, Factor: 2}
		}, "length <= every"},
		{"unknown action", func(s *Spec) {
			s.Phases[0].Inject = []InjectStep{{Action: "reboot-universe"}}
		}, "unknown action"},
		{"inject past phase end", func(s *Spec) {
			s.Phases[0].Inject = []InjectStep{{At: Duration{time.Minute}, Action: "kill-backend"}}
		}, "outside the phase"},
		{"exec without cmd", func(s *Spec) {
			s.Phases[0].Inject = []InjectStep{{Action: "exec"}}
		}, "exec needs cmd"},
		{"slo bad precision", func(s *Spec) {
			s.SLO = &SLO{MinPrecision: 1.5}
		}, "precision/recall"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(s)
			err := s.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestCommittedExampleParses pins the example scenario shipped in the
// repo (and run by the cluster e2e) to the current schema.
func TestCommittedExampleParses(t *testing.T) {
	s, err := Load("../../examples/scenarios/soak-burst-kill.json")
	if err != nil {
		t.Fatalf("load committed example: %v", err)
	}
	if s.TotalDatasets() != 4 {
		t.Fatalf("example declares %d datasets, want 4", s.TotalDatasets())
	}
	if len(s.Phases) != 4 {
		t.Fatalf("example has %d phases, want 4", len(s.Phases))
	}
	if s.SLO == nil || !s.SLO.Zero5xxDuringKill || s.SLO.MinPrecision < 0.9 || s.SLO.MinRecall < 0.8 {
		t.Fatalf("example SLO lost its gates: %+v", s.SLO)
	}
	var killPhases int
	for _, p := range s.Phases {
		if len(p.Inject) > 0 {
			killPhases++
		}
	}
	if killPhases != 1 {
		t.Fatalf("example has %d inject phases, want 1", killPhases)
	}
}

func TestTotalDatasetsCountsGroups(t *testing.T) {
	s := validSpec()
	s.Datasets = append(s.Datasets, DatasetGroup{Count: 3, Preset: "book-cs", Seed: 9})
	if got := s.TotalDatasets(); got != 4 {
		t.Fatalf("TotalDatasets = %d, want 4 (implicit 1 + explicit 3)", got)
	}
}
