// Scenario soak acceptance test (ISSUE 7): run the committed example
// scenario — ramp, burst, SIGKILL-a-backend, drain — through a real
// 3-backend cluster behind a real copygate process, and assert the SLOs
// from the emitted verdict JSON, not from logs: the executor follows
// each phase's target rate within tolerance, the kill phase surfaces
// zero 5xx (executor-observed and scraped server-side), and detection
// quality on the planted copier cliques clears the precision/recall
// gates. Set SCENARIO_VERDICT_FILE to keep the verdict as a CI
// artifact.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"copydetect/internal/scenario"
	"copydetect/internal/testkit"
)

func TestScenarioSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak; run without -short (CI job cluster-e2e)")
	}
	spec, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "soak-burst-kill.json"))
	if err != nil {
		t.Fatalf("load committed scenario: %v", err)
	}

	daemons := make([]*testkit.Proc, 3)
	urls := make([]string, 3)
	for i := range daemons {
		daemons[i] = startDaemon(t, fmt.Sprintf("soak-copydetectd-%d", i), "127.0.0.1:0")
		urls[i] = daemons[i].Base
	}
	gate := testkit.Start(t, "soak-copygate", os.Args[0], "127.0.0.1:0",
		"-backends", strings.Join(urls, ","), "-probe-every", "100ms")

	// The injector realizes the spec's kill steps against the child
	// processes the test owns — same effect as copyload's -pids
	// SIGKILL, without guessing at PIDs.
	var killMu sync.Mutex
	var killed []int
	r := &scenario.Runner{
		Target: gate.Base,
		Client: &http.Client{Timeout: 60 * time.Second},
		// The gateway is the client-visible surface: its request
		// counters are the server-side witness for the zero-5xx SLO.
		// (Scraping the victim backend would fail after the kill.)
		ScrapeTargets: []string{gate.Base},
		Injector: scenario.InjectorFunc(func(ctx context.Context, step scenario.InjectStep) error {
			if step.Action != "kill-backend" {
				return fmt.Errorf("unexpected inject action %q", step.Action)
			}
			if step.Backend < 0 || step.Backend >= len(daemons) {
				return fmt.Errorf("kill-backend %d out of range", step.Backend)
			}
			killMu.Lock()
			killed = append(killed, step.Backend)
			killMu.Unlock()
			daemons[step.Backend].Kill()
			return nil
		}),
		Logf: t.Logf,
	}
	verdict, err := r.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("scenario run: %v", err)
	}

	// Everything below asserts against the verdict as *emitted*: encode
	// to JSON (the artifact CI archives), decode fresh, and judge that.
	raw, err := json.MarshalIndent(verdict, "", "  ")
	if err != nil {
		t.Fatalf("marshal verdict: %v", err)
	}
	if path := os.Getenv("SCENARIO_VERDICT_FILE"); path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err == nil {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Logf("write verdict artifact: %v", err)
			}
		}
	}
	var v scenario.Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("emitted verdict does not decode: %v", err)
	}

	killMu.Lock()
	nKilled := len(killed)
	killMu.Unlock()
	if nKilled != 1 {
		t.Fatalf("scenario killed %d backends, want 1", nKilled)
	}

	checks := map[string][]scenario.Check{}
	for _, c := range v.Checks {
		checks[c.Name] = append(checks[c.Name], c)
	}
	// Rate following: every rated phase within the SLO tolerance.
	if len(checks["rate"]) == 0 {
		t.Error("verdict has no rate checks")
	}
	for _, c := range checks["rate"] {
		if !c.Pass {
			t.Errorf("phase %q missed its target rate: deviation %.3f > %.2f (%s)",
				c.Phase, c.Actual, c.Limit, c.Detail)
		}
	}
	// Zero 5xx during the kill phase, by both witnesses.
	if len(checks["zero-5xx"]) != 1 {
		t.Fatalf("verdict has %d zero-5xx checks, want 1 (the kill phase)", len(checks["zero-5xx"]))
	}
	if c := checks["zero-5xx"][0]; !c.Pass || c.Actual != 0 {
		t.Errorf("kill phase surfaced %v 5xx (%s)", c.Actual, c.Detail)
	}
	// Detection quality against the planted copier cliques.
	for _, name := range []string{"precision", "recall"} {
		cs := checks[name]
		if len(cs) != 1 {
			t.Fatalf("verdict has %d %s checks, want 1", len(cs), name)
		}
		if !cs[0].Pass {
			t.Errorf("%s = %.3f below the %.2f gate", name, cs[0].Actual, cs[0].Limit)
		}
	}
	if v.Quality == nil || v.Quality.DetectedPairs == 0 {
		t.Error("verdict carries no detection quality data")
	}
	if !v.Pass {
		t.Errorf("verdict failed overall:\n%s", raw)
	}

	// The kill phase really exercised failover: the verdict records the
	// injection, and load continued (appends landed during that phase).
	for _, p := range v.Phases {
		if len(p.Injected) > 0 {
			if p.Appends == 0 {
				t.Errorf("kill phase %q landed no appends", p.Name)
			}
			if p.Scrape == nil || p.Scrape.Error != "" {
				t.Errorf("kill phase %q boundary scrape: %+v", p.Name, p.Scrape)
			}
		}
	}
}
