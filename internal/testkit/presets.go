// Package testkit is what the equivalence suites share — the paper's
// (INDEX, BOUND, BOUND+, HYBRID and INCREMENTAL reach PAIRWISE's
// decisions) and the repository's (any worker count, streamed, crashed
// and clustered runs equal the plain one): one preset table, one exact
// comparator (Diff), one real-process harness (Main, Build, Start), one
// wire client, and the check that a command's README flag table names
// exactly its flags (CheckFlagTable). Only _test.go files import it, and
// it imports nothing of the module but internal/gen and internal/dataset,
// so the in-package tests of core, fusion and server can;
// internal/analysis checks both.
package testkit

import (
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

// Preset is a named, scaled generator instance.
type Preset struct {
	ID     string
	Config gen.Config
	Scale  float64
	Long   bool // skipped under -short
}

// table scales the paper workloads down until a whole equivalence matrix
// stays fast under -race with hundreds to thousands of candidate pairs
// alive. The first four key internal/core's scores.golden and
// hybrid_copying.golden: their ids, seeds and scales do not change.
var table = map[string]Preset{
	"book-cs":    {Config: gen.BookCS(11), Scale: 0.04},
	"stock-1day": {Config: gen.Stock1Day(12), Scale: 0.01},
	"book-full":  {Config: gen.BookFull(13), Scale: 0.004, Long: true},
	"stock-2wk":  {Config: gen.Stock2Wk(14), Scale: 0.004, Long: true},
	// Large enough to walk rather than sweep.
	"book-full-x0.05": {Config: gen.BookFull(13), Scale: 0.05},
	// The benchmark's proportions: a Stock shape and a Book-CS shape.
	"stock-1day-x0.05": {Config: gen.Stock1Day(1), Scale: 0.05},
	"book-cs-x0.2":     {Config: gen.BookCS(1), Scale: 0.2},
	// Candidate pairs on both sides of HYBRID's share threshold.
	"stock-1day-x0.008": {Config: gen.Stock1Day(7), Scale: 0.008},
	// internal/core's kernel benchmarks.
	"stock-1day-x0.15": {Config: gen.Stock1Day(1), Scale: 0.15},
	"book-cs-x0.5":     {Config: gen.BookCS(1), Scale: 0.5},
	"book-full-x0.25":  {Config: gen.BookFull(1), Scale: 0.25},
	"stock-2wk-x0.02":  {Config: gen.Stock2Wk(14), Scale: 0.02},
}

// Lookup returns the named presets in argument order. An unknown id
// panics: it is a typo in a test.
func Lookup(ids ...string) []Preset {
	out := make([]Preset, len(ids))
	for i, id := range ids {
		pr, ok := table[id]
		if !ok {
			panic("testkit: no preset " + id)
		}
		pr.ID = id
		out[i] = pr
	}
	return out
}

// Generate materializes a preset's dataset.
func Generate(t testing.TB, pr Preset) *dataset.Dataset {
	t.Helper()
	ds, _, err := gen.Generate(gen.Scale(pr.Config, pr.Scale))
	if err != nil {
		t.Fatalf("generate %s: %v", pr.ID, err)
	}
	return ds
}

// ForEach runs fn on every preset's dataset as a subtest named by its id,
// skipping the long presets under -short.
func ForEach(t *testing.T, presets []Preset, fn func(t *testing.T, ds *dataset.Dataset)) {
	for _, pr := range presets {
		t.Run(pr.ID, func(t *testing.T) {
			if pr.Long && testing.Short() {
				t.Skip("large preset skipped in short mode")
			}
			fn(t, Generate(t, pr))
		})
	}
}

// Batches cuts records into n contiguous batches of equal size, the last
// one shorter.
func Batches(recs []dataset.Record, n int) [][]dataset.Record {
	var batches [][]dataset.Record
	for per, start := (len(recs)+n-1)/n, 0; start < len(recs); start += per {
		batches = append(batches, recs[start:min(start+per, len(recs))])
	}
	return batches
}
