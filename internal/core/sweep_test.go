package core_test

import (
	"fmt"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/index"
	"copydetect/internal/testkit"
)

// TestSweepEqualsWalk: the two loop nests of the scan are one function. On
// the equivalence presets plus a Stock and a Book-CS shape of the benchmark's
// proportions — so every shape also runs the nest the routing rule would not
// give it — each detector's whole iterative process is run with the entry
// walk forced and with the pair sweep forced, at workers 1 and 3 and under
// the three entry orders, and every round must agree: the same pairs in the
// same order with the same scores (exact float equality), the same Stats
// counters, for INCREMENTAL the same pass statistics, and the same truth and
// accuracies at the end. INCREMENTAL's process covers the freeze round; a
// forced rebase (an INDEX-mode scan whose tables prepare reads) follows. The
// hand-built edges are in sweep_internal_test.go, the sparse pair map's in
// TestSparsePairMapKernel.
func TestSweepEqualsWalk(t *testing.T) {
	p := bayes.DefaultParams()
	orders := []index.Order{index.ByContribution, index.ByProvider, index.Random}
	testkit.ForEach(t, append(paperPresets, testkit.Lookup("stock-1day-x0.05", "book-cs-x0.2")...), func(t *testing.T, ds *dataset.Dataset) {
		for _, workers := range []int{1, 3} {
			for _, order := range orders {
				opts := core.Options{Order: order, Seed: 42, Workers: workers}
				for name, mk := range map[string]func() core.Detector{
					"INDEX":       func() core.Detector { return &core.Index{Params: p, Opts: opts} },
					"BOUND":       func() core.Detector { return &core.Bound{Params: p, Opts: opts} },
					"BOUND+":      func() core.Detector { return &core.BoundPlus{Params: p, Opts: opts} },
					"HYBRID":      func() core.Detector { return &core.Hybrid{Params: p, Opts: opts} },
					"INCREMENTAL": func() core.Detector { return &core.Incremental{Params: p, Opts: opts} },
				} {
					what := fmt.Sprintf("%s workers=%d order=%d", name, workers, order)
					run := func(sweep bool) process {
						core.ForceNest(t, sweep)
						return runProcess(ds, p, mk())
					}
					walk, sweep := run(false), run(true)
					if len(walk.Rounds) < 3 || (name == "INCREMENTAL" && len(walk.History) == 0) {
						t.Fatalf("%s: %d rounds and %d incremental rounds walked, want at least 3 and, for INCREMENTAL, some",
							what, len(walk.Rounds), len(walk.History))
					}
					if d := testkit.Diff(sweep, walk, untimed...); d != "" {
						t.Fatalf("%s: %s", what, d)
					}
				}
			}
			// A forced rebase: freeze on one state, then turn it upside
			// down, which rescans in INDEX mode and prepares from the
			// tables.
			st := roundTwoState(ds, p)
			flipped := st.Clone()
			for d := range flipped.P {
				for v := range flipped.P[d] {
					flipped.P[d][v] = 1 - flipped.P[d][v]
				}
			}
			rebase := func(sweep bool) (*core.Result, core.PassStats) {
				core.ForceNest(t, sweep)
				inc := &core.Incremental{Params: p, Opts: core.Options{Workers: workers}}
				inc.DetectRound(ds, st, 1)
				inc.DetectRound(ds, st, 2)
				return inc.DetectRound(ds, flipped, 3), inc.LastPass
			}
			walk, walkPass := rebase(false)
			sweep, sweepPass := rebase(true)
			if !walkPass.Rebased {
				t.Fatalf("workers=%d: pass stats after the flip %+v, want a rebase", workers, walkPass)
			}
			if d := testkit.Diff([]any{sweep, sweepPass}, []any{walk, walkPass}, untimed...); d != "" {
				t.Fatalf("workers=%d: after the flip: %s", workers, d)
			}
		}
	})
}

// roundTwoState is the state a detector's second round sees: uniform
// accuracies, then one vote.
func roundTwoState(ds *dataset.Dataset, p bayes.Params) *bayes.State {
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.P = fusion.ValueProbs(ds, st, p, nil)
	st.A = fusion.Accuracies(ds, st.P)
	return st
}
