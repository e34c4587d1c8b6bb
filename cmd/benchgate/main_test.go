package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldRun = `
goos: linux
BenchmarkHybridWorkers/book-cs/workers=1-8         3   1000000 ns/op   12 B/op
BenchmarkHybridWorkers/book-cs/workers=1-8         3   1040000 ns/op
BenchmarkHybridWorkers/book-cs/workers=1-8         3    960000 ns/op
BenchmarkIncrementalWorkers/book-cs-8              3    500000 ns/op
BenchmarkIncrementalWorkers/book-cs-8              3    520000 ns/op
BenchmarkIncrementalWorkers/book-cs-8              3    480000 ns/op
BenchmarkOnlyInOld-8                               3    100000 ns/op
PASS
`

func newRun(hybridNs, incNs int) string {
	var b strings.Builder
	for i := -1; i <= 1; i++ {
		b.WriteString("BenchmarkHybridWorkers/book-cs/workers=1-8  3  ")
		b.WriteString(strings.TrimSpace(strings.Repeat(" ", 1)))
		b.WriteString(itoa(hybridNs+i*10000) + " ns/op\n")
		b.WriteString("BenchmarkIncrementalWorkers/book-cs-8  3  " + itoa(incNs+i*5000) + " ns/op\n")
	}
	b.WriteString("BenchmarkOnlyInNew-8  3  42 ns/op\nPASS\n")
	return b.String()
}

func itoa(n int) string {
	var b []byte
	if n == 0 {
		return "0"
	}
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestGateComputesMedianGeomean(t *testing.T) {
	// New run: hybrid 10% slower, incremental 10% faster -> geomean ~1.
	var out bytes.Buffer
	rep, err := gate(strings.NewReader(oldRun), strings.NewReader(newRun(1100000, 450000)), &out)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	want := math.Sqrt(1.1 * 0.9)
	if math.Abs(rep.GeomeanRatio-want) > 0.001 {
		t.Fatalf("geomean = %.4f, want %.4f\n%s", rep.GeomeanRatio, want, out.String())
	}
	// Benchmarks present on only one side must not count.
	if s := out.String(); strings.Contains(s, "OnlyInOld") || strings.Contains(s, "OnlyInNew") {
		t.Fatalf("one-sided benchmarks in table:\n%s", s)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("report has %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	// Per-benchmark medians survive into the report.
	if h := rep.Benchmarks[0]; h.Name != "BenchmarkHybridWorkers/book-cs/workers=1-8" ||
		h.OldNsOp != 1000000 || h.NewNsOp != 1100000 || math.Abs(h.Ratio-1.1) > 1e-9 {
		t.Fatalf("hybrid row = %+v", h)
	}
}

func TestGateFlagsRegression(t *testing.T) {
	var out bytes.Buffer
	// Both 30% slower: geomean 1.3, over any 15% budget.
	rep, err := gate(strings.NewReader(oldRun), strings.NewReader(newRun(1300000, 650000)), &out)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	if rep.GeomeanRatio < 1.25 || rep.GeomeanRatio > 1.35 {
		t.Fatalf("geomean = %.3f, want ~1.3", rep.GeomeanRatio)
	}
	// And an improvement stays comfortably under 1.
	rep, err = gate(strings.NewReader(oldRun), strings.NewReader(newRun(700000, 350000)), &out)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	if rep.GeomeanRatio >= 1 {
		t.Fatalf("improvement scored geomean %.3f", rep.GeomeanRatio)
	}
}

// TestRunWritesJSONReport drives the whole CLI: the JSON artifact must
// be written with the full verdict — also (especially) when the gate
// fails, since CI archives it as the per-PR perf trajectory record.
func TestRunWritesJSONReport(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "main.txt")
	newPath := filepath.Join(dir, "pr.txt")
	jsonPath := filepath.Join(dir, "verdict.json")
	if err := os.WriteFile(oldPath, []byte(oldRun), 0o644); err != nil {
		t.Fatal(err)
	}

	// Passing case: ~neutral geomean.
	if err := os.WriteFile(newPath, []byte(newRun(1100000, 450000)), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-old", oldPath, "-new", newPath, "-json", jsonPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("neutral run exited %d; stderr:\n%s", code, stderr.String())
	}
	var rep report
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	if !rep.Pass || rep.MaxRegression != 0.15 || len(rep.Benchmarks) != 2 {
		t.Fatalf("report = %+v", rep)
	}

	// Failing case: the gate exits 1 but the JSON verdict is still
	// recorded, with pass=false.
	if err := os.WriteFile(newPath, []byte(newRun(1300000, 650000)), 0o644); err != nil {
		t.Fatal(err)
	}
	code = run([]string{"-old", oldPath, "-new", newPath, "-json", jsonPath, "-max-regression", "0.15"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("regressed run exited %d, want 1", code)
	}
	raw, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	rep = report{}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.GeomeanRatio < 1.25 {
		t.Fatalf("failing report = %+v", rep)
	}

	// Flag errors exit 2 without touching the JSON path.
	if code := run([]string{"-old", oldPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing -new exited %d, want 2", code)
	}
	if code := run([]string{"-old", oldPath, "-new", newPath, "-max-regression", "x"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -max-regression exited %d, want 2", code)
	}
}

func TestGateErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := gate(strings.NewReader(oldRun), strings.NewReader("no benchmarks here"), &out); err == nil {
		t.Error("disjoint runs accepted")
	}
	if _, err := gate(strings.NewReader(""), strings.NewReader(""), &out); err == nil {
		t.Error("empty runs accepted")
	}
}

const oldRunMem = `
BenchmarkHybridWorkers/workers1-8   3   1000000 ns/op   500000 B/op   4000 allocs/op
BenchmarkHybridWorkers/workers1-8   3   1040000 ns/op   500000 B/op   4100 allocs/op
BenchmarkHybridWorkers/workers1-8   3    960000 ns/op   500000 B/op   3900 allocs/op
BenchmarkSteady-8                   3    500000 ns/op        0 B/op      0 allocs/op
PASS
`

const newRunMem = `
BenchmarkHybridWorkers/workers1-8   3   1000000 ns/op    90000 B/op      5 allocs/op
BenchmarkSteady-8                   3    500000 ns/op        0 B/op      0 allocs/op
PASS
`

const newRunMemRegressed = `
BenchmarkHybridWorkers/workers1-8   3   1000000 ns/op   500000 B/op   4000 allocs/op
BenchmarkSteady-8                   3    500000 ns/op    80000 B/op    900 allocs/op
PASS
`

// TestGateAllocs: -benchmem columns feed a second geomean with +1-damped
// ratios, so 0 allocs/op steady states compare cleanly.
func TestGateAllocs(t *testing.T) {
	var out bytes.Buffer
	rep, err := gate(strings.NewReader(oldRunMem), strings.NewReader(newRunMem), &out)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	if rep.Benchmarks[0].OldAllocsOp != 4000 || rep.Benchmarks[0].NewAllocsOp != 5 {
		t.Fatalf("alloc medians = %+v", rep.Benchmarks[0])
	}
	// hybrid: (5+1)/(4000+1); steady: (0+1)/(0+1) = 1.
	want := math.Sqrt(6.0 / 4001.0)
	if math.Abs(rep.GeomeanAllocRatio-want) > 1e-9 {
		t.Fatalf("alloc geomean = %v, want %v", rep.GeomeanAllocRatio, want)
	}

	// A 0 -> 900 regression on one benchmark must blow the alloc gate even
	// though ns/op is unchanged.
	rep, err = gate(strings.NewReader(oldRunMem), strings.NewReader(newRunMemRegressed), &out)
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	if rep.GeomeanRatio > 1.001 {
		t.Fatalf("ns geomean = %v, want ~1", rep.GeomeanRatio)
	}
	if rep.GeomeanAllocRatio < 10 {
		t.Fatalf("alloc geomean = %v, want the 0→900 regression to dominate", rep.GeomeanAllocRatio)
	}
}

// TestRunGatesAllocRegression: the CLI must fail on an alloc-only
// regression and record both budgets in the JSON verdict.
func TestRunGatesAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "main.txt")
	newPath := filepath.Join(dir, "pr.txt")
	jsonPath := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(oldPath, []byte(oldRunMem), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newRunMemRegressed), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-old", oldPath, "-new", newPath, "-json", jsonPath}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("alloc regression exited %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var rep report
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.MaxAllocRegression != 0.25 || rep.GeomeanAllocRatio < 10 {
		t.Fatalf("report = %+v", rep)
	}

	// An allocation improvement passes with budget to spare.
	if err := os.WriteFile(newPath, []byte(newRunMem), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-old", oldPath, "-new", newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("alloc improvement exited %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if code := run([]string{"-old", oldPath, "-new", newPath, "-max-alloc-regression", "x"}, &stdout, &stderr); code != 2 {
		t.Fatal("bad -max-alloc-regression accepted")
	}
}

// TestParseReportedMetrics: a benchmark's own metrics (b.ReportMetric, as
// BenchmarkRun and BenchmarkRefresh report them) come between ns/op and
// the -benchmem columns, which must still be read.
func TestParseReportedMetrics(t *testing.T) {
	const line = "BenchmarkRefresh/book-cs-x0.5-2 \t 40\t  32060084 ns/op\t 22.25 detect-ms\t 5.602 fusion-ms\t 5034910 B/op\t    4897 allocs/op\n"
	got, err := parseBench(strings.NewReader(line))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s := got["BenchmarkRefresh/book-cs-x0.5-2"]
	if s == nil || len(s.ns) != 1 || s.ns[0] != 32060084 || len(s.allocs) != 1 || s.allocs[0] != 4897 {
		t.Fatalf("parsed %+v, want 32060084 ns/op and 4897 allocs/op", s)
	}
}
