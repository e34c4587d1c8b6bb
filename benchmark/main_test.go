package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs the whole harness on tiny inputs, so the benchmark
// cannot rot unnoticed: all four workloads traced (laps, every output
// check, the layer replay, the table), then one workload the way the
// driver runs it (untraced, ending in the result line). It builds
// cmd/copydetectd and starts real child daemons.
func TestSmoke(t *testing.T) {
	var out, errs bytes.Buffer
	if code := mainExit([]string{"-smoke", "-trace", "1"}, &out, &errs); code != 0 {
		t.Fatalf("-smoke -trace 1 exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "== "+w.name+":") {
			t.Errorf("no report for workload %s", w.name)
		}
	}

	out.Reset()
	errs.Reset()
	if code := mainExit([]string{"--workload", "stream-ingest", "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke"}, &out, &errs); code != 0 {
		t.Fatalf("single workload exited %d\nstderr:\n%s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last stdout line is not JSON: %v\n%s", err, out.String())
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	man := mustManifest(t)
	if len(metrics) != len(man.EndToEnd) {
		t.Errorf("result line has %d metrics, BENCHMARK.json lists %d end-to-end", len(metrics), len(man.EndToEnd))
	}
	for _, d := range man.EndToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Value == nil || *m.Value == 0 || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want a non-zero value in %s", d.Name, m, d.Unit)
		}
	}
}

func mustManifest(t *testing.T) *manifest {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestMeetsTheContract keeps BENCHMARK.json inside the limits
// the driver refuses a benchmark for, and in step with the workloads
// this package implements.
func TestManifestMeetsTheContract(t *testing.T) {
	man := mustManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, _ . - starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the package implements %d", len(man.Workloads), len(workloads))
	}
	for _, w := range man.Workloads {
		use(w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range man.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, d := range man.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not 1-16 of letters, digits, _ / %% . -", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", man.RunSeconds)
	}
}
