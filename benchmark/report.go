package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp says where a result came from. Two results compare like with
// like only when their stamps agree on everything but the seed.
type stamp struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goversion"`
	Platform   string  `json:"platform"` // goos/goarch
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	// FilesHash fingerprints BENCHMARK.json and the benchmark's own
	// sources, so numbers from different benchmark code never pass for
	// comparable.
	FilesHash string `json:"benchmarkFilesHash"`
}

func (s stamp) String() string {
	return fmt.Sprintf("cpus=%d gomaxprocs=%d %s %s commit=%s seed=%d seconds=%g files=%s",
		s.CPUs, s.GOMAXPROCS, s.GoVersion, s.Platform, s.Commit, s.Seed, s.Seconds, s.FilesHash)
}

func stampFor(root string, cfg runConfig) stamp {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commit, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		FilesHash: filesHash(root),
	}
}

// filesHash hashes BENCHMARK.json and everything under benchmark/ that
// decides what is measured — the sources, go.mod, run.sh; not the prose,
// the committed baseline results, or out/ — names included.
func filesHash(root string) string {
	h := sha256.New()
	add := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			return
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	add(filepath.Join(root, "BENCHMARK.json"))
	dir := filepath.Join(root, "benchmark")
	entries, _ := os.ReadDir(dir) // sorted by name, so the hash is stable
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".go", ".mod", ".sh":
			add(filepath.Join(dir, e.Name()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// results is a result file: one stamp, one report per workload run.
type results struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]*report `json:"workloads"`
}

func (res results) write(path string) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// restrictTo keeps exactly the metrics defs lists — the end-to-end set
// of an untraced run, the per-layer set of a traced one — and refuses a
// report that lacks one or holds a value that is not a number.
func (rep *report) restrictTo(defs []metricDef) error {
	kept := make(map[string]measured, len(defs))
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", rep.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", rep.Workload, d.Name, m.Value)
		}
		kept[d.Name] = m
	}
	rep.Metrics = kept
	return nil
}

func printReport(w io.Writer, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "== %s: %d laps, %d operations attempted, %d failed, outputs correct: %t (%.1f s)\n",
		rep.Workload, rep.Laps, rep.Attempted, rep.Failed, rep.Correct, rep.WallS)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %14.4f %-8s %-6s is better  samples=%d", d.Name, m.Value, d.Unit, d.Better, m.N)
		if d.Bound > 0 {
			line += fmt.Sprintf("  bound=%.2f", d.Bound)
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// driverLine is the one-line JSON object a single-workload run ends
// its standard output with.
func (rep *report) driverLine(defs []metricDef) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{rep.Metrics[d.Name].Value, d.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics}
}

// compareFiles prints, per workload and metric, the change from the old
// result file to the new one against the metric's bound. Results whose
// stamps differ (other than by seed) were not measured like for like;
// that is said loudly, because such a comparison proves nothing.
func compareFiles(w io.Writer, man *manifest, oldPath, newPath string) error {
	var old, cur results
	for path, into := range map[string]*results{oldPath: &old, newPath: &cur} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if diffs := old.Stamp.differences(cur.Stamp); len(diffs) > 0 {
		fmt.Fprintf(w, "!!! WARNING: THESE RESULTS ARE NOT COMPARABLE: %s\n!!! old: %s\n!!! new: %s\n",
			strings.Join(diffs, ", "), old.Stamp, cur.Stamp)
	}
	defs := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		defs[d.Name] = d
	}
	names := make([]string, 0, len(cur.Workloads))
	for name := range cur.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		before, ok := old.Workloads[name]
		if !ok {
			continue
		}
		after := cur.Workloads[name]
		metrics := make([]string, 0, len(after.Metrics))
		for m := range after.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		fmt.Fprintf(w, "== %s\n", name)
		for _, m := range metrics {
			b, ok := before.Metrics[m]
			if !ok {
				continue
			}
			a, d := after.Metrics[m], defs[m]
			worse := (a.Value - b.Value) / b.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case d.Bound > 0 && worse > d.Bound:
				verdict = fmt.Sprintf("WORSE than the bound %.2f", d.Bound)
			case d.Bound > 0:
				verdict = fmt.Sprintf("within the bound %.2f", d.Bound)
			}
			fmt.Fprintf(w, "  %-36s %14.4f -> %14.4f %-8s %+7.1f%% worse  %s\n", m, b.Value, a.Value, d.Unit, 100*worse, verdict)
		}
	}
	return nil
}

// differences lists the stamp fields (seed aside) on which s and o
// disagree.
func (s stamp) differences(o stamp) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	add("cpus", s.CPUs, o.CPUs)
	add("gomaxprocs", s.GOMAXPROCS, o.GOMAXPROCS)
	add("goversion", s.GoVersion, o.GoVersion)
	add("platform", s.Platform, o.Platform)
	add("seconds", s.Seconds, o.Seconds)
	add("smoke", s.Smoke, o.Smoke)
	add("benchmark files", s.FilesHash, o.FilesHash)
	return out
}
