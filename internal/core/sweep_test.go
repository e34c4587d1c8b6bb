package core_test

import (
	"fmt"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
	"copydetect/internal/index"
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
	presets := append(equivPresets(),
		equivPreset{id: "stock-1day-x0.05", cfg: gen.Stock1Day(1), scale: 0.05},
		equivPreset{id: "book-cs-x0.2", cfg: gen.BookCS(1), scale: 0.2})
	orders := []index.Order{index.ByContribution, index.ByProvider, index.Random}
	for _, pr := range presets {
		pr := pr
		t.Run(pr.id, func(t *testing.T) {
			if pr.long && testing.Short() {
				t.Skip("large preset skipped in short mode")
			}
			ds := equivDataset(t, pr)
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
						run := func(sweep bool) ([]*core.Result, *fusion.Outcome, core.Detector) {
							core.ForceNest(t, sweep)
							det := mk()
							rounds, out := runProcess(ds, p, det)
							return rounds, out, det
						}
						walk, walkOut, walkDet := run(false)
						sweep, sweepOut, sweepDet := run(true)
						if len(sweep) != len(walk) || len(walk) < 3 {
							t.Fatalf("%s: %d rounds swept, %d walked, want the same and at least 3", what, len(sweep), len(walk))
						}
						for r := range walk {
							comparePairs(t, r+1, walk[r], sweep[r])
							compareStats(t, r+1, walk[r].Stats, sweep[r].Stats)
						}
						for d := range walkOut.Truth {
							if sweepOut.Truth[d] != walkOut.Truth[d] {
								t.Fatalf("%s: truth of item %d differs", what, d)
							}
						}
						for s := range walkOut.State.A {
							if sweepOut.State.A[s] != walkOut.State.A[s] {
								t.Fatalf("%s: accuracy of source %d differs", what, s)
							}
						}
						if name == "INCREMENTAL" {
							wh, sh := walkDet.(*core.Incremental).History, sweepDet.(*core.Incremental).History
							if len(wh) == 0 || len(sh) != len(wh) {
								t.Fatalf("%s: %d incremental rounds swept, %d walked, want the same and some", what, len(sh), len(wh))
							}
							for r := range wh {
								if sh[r] != wh[r] {
									t.Fatalf("%s: pass stats of incremental round %d: walk %+v, sweep %+v", what, r+1, wh[r], sh[r])
								}
							}
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
				if !walkPass.Rebased || sweepPass != walkPass {
					t.Fatalf("workers=%d: pass stats after the flip: walk %+v, sweep %+v, want a rebase in both", workers, walkPass, sweepPass)
				}
				comparePairs(t, 3, walk, sweep)
				compareStats(t, 3, walk.Stats, sweep.Stats)
			}
		})
	}
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
