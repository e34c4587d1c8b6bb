// Command benchgate is the CI performance-regression gate: it compares
// two `go test -bench` outputs (the pull request's and the main
// branch's), prints a per-benchmark table, and fails when the geometric
// mean of the ns/op ratios regresses beyond a threshold.
//
// Usage:
//
//	benchgate -old main.txt -new pr.txt [-max-regression 0.15] [-max-alloc-regression 0.25] [-json FILE]
//
// Each file should come from the same benchmark set run with -count N
// (N >= 3 recommended); benchgate takes the per-benchmark median, so a
// single noisy iteration does not fail a build. When both runs carry
// -benchmem columns, allocation counts are gated too: the geometric mean
// of the per-benchmark (new+1)/(old+1) allocs/op ratios must stay within
// -max-alloc-regression. The +1 damping keeps zero-allocation steady
// states comparable while still flagging a 0 -> many regression. benchstat remains the
// human-readable report; benchgate is the machine-checkable verdict.
// With -json the verdict is additionally written as a machine-readable
// report (per-benchmark medians and ratios, the geomean, and the
// pass/fail outcome) — CI archives one per pull request, so the
// repository accumulates a performance trajectory instead of only a
// binary gate. The JSON is written even when the gate fails; only input
// errors leave it absent.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result line. A benchmark's own metrics
// (b.ReportMetric) sit between ns/op and the -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9][0-9.eE+]*) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

// samples holds one benchmark's measurements across -count repetitions.
// allocs is empty when the run lacked -benchmem.
type samples struct {
	ns     []float64
	allocs []float64
}

// parseBench collects the ns/op (and, with -benchmem, allocs/op) samples
// of every benchmark in a `go test -bench` output.
func parseBench(r io.Reader) (map[string]*samples, error) {
	out := make(map[string]*samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		s := out[m[1]]
		if s == nil {
			s = &samples{}
			out[m[1]] = s
		}
		s.ns = append(s.ns, v)
		if m[4] != "" {
			a, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad allocs/op in %q: %w", sc.Text(), err)
			}
			s.allocs = append(s.allocs, a)
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// benchResult is one shared benchmark's comparison: median ns/op on each
// side and their ratio (new/old; above 1 is a regression). When both runs
// carry -benchmem data, the median allocs/op and their dampened ratio
// (new+1)/(old+1) — well-defined at zero allocations — ride along.
type benchResult struct {
	Name        string  `json:"name"`
	OldNsOp     float64 `json:"oldNsOp"`
	NewNsOp     float64 `json:"newNsOp"`
	Ratio       float64 `json:"ratio"`
	OldAllocsOp float64 `json:"oldAllocsOp,omitempty"`
	NewAllocsOp float64 `json:"newAllocsOp,omitempty"`
	AllocRatio  float64 `json:"allocRatio,omitempty"`
}

// report is the machine-readable verdict (-json).
type report struct {
	Benchmarks   []benchResult `json:"benchmarks"`
	GeomeanRatio float64       `json:"geomeanRatio"`
	// GeomeanAllocRatio is the geometric mean of the per-benchmark
	// (new+1)/(old+1) allocs/op ratios, over the benchmarks measured with
	// -benchmem on both sides; 0 when none were.
	GeomeanAllocRatio  float64 `json:"geomeanAllocRatio,omitempty"`
	MaxRegression      float64 `json:"maxRegression"`
	MaxAllocRegression float64 `json:"maxAllocRegression,omitempty"`
	Pass               bool    `json:"pass"`
}

// gate compares the two outputs across the benchmarks they share,
// writing the human-readable table to w and returning the per-benchmark
// results and the geometric-mean ratio.
func gate(oldR, newR io.Reader, w io.Writer) (report, error) {
	oldS, err := parseBench(oldR)
	if err != nil {
		return report{}, err
	}
	newS, err := parseBench(newR)
	if err != nil {
		return report{}, err
	}
	var names []string
	for name := range oldS {
		if _, ok := newS[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return report{}, fmt.Errorf("benchgate: the two runs share no benchmarks")
	}
	sort.Strings(names)
	rep := report{Benchmarks: make([]benchResult, 0, len(names))}
	fmt.Fprintf(w, "%-60s %14s %14s %8s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ratio", "allocs/op", "ratio")
	logSum := 0.0
	allocLogSum, allocCount := 0.0, 0
	for _, name := range names {
		o, n := median(oldS[name].ns), median(newS[name].ns)
		if o <= 0 || n <= 0 {
			return report{}, fmt.Errorf("benchgate: non-positive median for %s", name)
		}
		ratio := n / o
		logSum += math.Log(ratio)
		row := benchResult{Name: name, OldNsOp: o, NewNsOp: n, Ratio: ratio}
		allocCol := ""
		if len(oldS[name].allocs) > 0 && len(newS[name].allocs) > 0 {
			oa, na := median(oldS[name].allocs), median(newS[name].allocs)
			// +1 damping keeps the ratio finite when the old side reached
			// zero allocations, without hiding a 0 -> k regression.
			ar := (na + 1) / (oa + 1)
			row.OldAllocsOp, row.NewAllocsOp, row.AllocRatio = oa, na, ar
			allocLogSum += math.Log(ar)
			allocCount++
			allocCol = fmt.Sprintf("%5.0f→%-5.0f %8.3f", oa, na, ar)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %8.3f %s\n", name, o, n, ratio, allocCol)
	}
	rep.GeomeanRatio = math.Exp(logSum / float64(len(names)))
	fmt.Fprintf(w, "\ngeomean ratio (new/old) over %d benchmarks: %.3f\n", len(names), rep.GeomeanRatio)
	if allocCount > 0 {
		rep.GeomeanAllocRatio = math.Exp(allocLogSum / float64(allocCount))
		fmt.Fprintf(w, "geomean allocs/op ratio over %d benchmarks: %.3f\n", allocCount, rep.GeomeanAllocRatio)
	}
	return rep, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program, split from main for tests (and so every
// path closes its files before returning an exit code — no defers
// bypassed by os.Exit).
func run(args []string, stdout, stderr io.Writer) int {
	oldPath, newPath, jsonPath := "", "", ""
	maxRegression := 0.15
	maxAllocRegression := 0.25
	usage := func() int {
		fmt.Fprintf(stderr, "usage: benchgate -old FILE -new FILE [-max-regression 0.15] [-max-alloc-regression 0.25] [-json FILE]\n")
		return 2
	}
	for i := 0; i < len(args); i++ {
		if i+1 >= len(args) {
			return usage() // every flag takes a value
		}
		switch args[i] {
		case "-old":
			i++
			oldPath = args[i]
		case "-new":
			i++
			newPath = args[i]
		case "-json":
			i++
			jsonPath = args[i]
		case "-max-regression":
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				fmt.Fprintf(stderr, "benchgate: bad -max-regression: %v\n", err)
				return 2
			}
			maxRegression = v
		case "-max-alloc-regression":
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				fmt.Fprintf(stderr, "benchgate: bad -max-alloc-regression: %v\n", err)
				return 2
			}
			maxAllocRegression = v
		default:
			return usage()
		}
	}
	if oldPath == "" || newPath == "" {
		return usage()
	}
	oldF, err := os.Open(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	newF, err := os.Open(newPath)
	if err != nil {
		oldF.Close()
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	rep, err := gate(oldF, newF, stdout)
	oldF.Close()
	newF.Close()
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	rep.MaxRegression = maxRegression
	rep.Pass = rep.GeomeanRatio <= 1+maxRegression
	if rep.GeomeanAllocRatio > 0 {
		// Allocation counts are gated only when both runs used -benchmem.
		rep.MaxAllocRegression = maxAllocRegression
		rep.Pass = rep.Pass && rep.GeomeanAllocRatio <= 1+maxAllocRegression
	}
	if jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		if err := os.WriteFile(jsonPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	if !rep.Pass {
		fmt.Fprintf(stderr, "benchgate: FAIL: geomean %.3f (budget %.0f%%), allocs geomean %.3f (budget %.0f%%)\n",
			rep.GeomeanRatio, maxRegression*100, rep.GeomeanAllocRatio, maxAllocRegression*100)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: OK (budget %.0f%%)\n", maxRegression*100)
	return 0
}
