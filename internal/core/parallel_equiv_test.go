// Equivalence suite for the parallel detection engine: for every detector
// and every generator preset, running with Workers ∈ {2, 4, 7} must
// produce byte-identical results to Workers = 1 — same pairs in the same
// order, same scores (exact float equality, no tolerance), same decisions,
// same statistics counters — across every round of the full iterative
// process. This is the test-side half of the determinism guarantee
// documented in internal/pool and DESIGN.md; run it with -race to also
// certify the single-writer sharding.
package core_test

import (
	"fmt"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
)

// equivPreset scales each paper workload down far enough that the whole
// matrix (presets × detectors × worker counts × rounds) stays fast under
// -race while keeping hundreds to thousands of candidate pairs alive.
type equivPreset struct {
	id    string
	cfg   gen.Config
	scale float64
	long  bool // skipped under -short
}

func equivPresets() []equivPreset {
	return []equivPreset{
		{id: "book-cs", cfg: gen.BookCS(11), scale: 0.04},
		{id: "stock-1day", cfg: gen.Stock1Day(12), scale: 0.01},
		{id: "book-full", cfg: gen.BookFull(13), scale: 0.004, long: true},
		{id: "stock-2wk", cfg: gen.Stock2Wk(14), scale: 0.004, long: true},
	}
}

func equivDataset(t *testing.T, pr equivPreset) *dataset.Dataset {
	t.Helper()
	ds, _, err := gen.Generate(gen.Scale(pr.cfg, pr.scale))
	if err != nil {
		t.Fatalf("generate %s: %v", pr.id, err)
	}
	return ds
}

// equivDetectors builds every detector of the family with the given
// worker count. PAIRWISE rides along: it is not part of the acceptance
// set, but its parallel baseline must obey the same determinism contract.
func equivDetectors(p bayes.Params, workers int) map[string]core.Detector {
	opts := core.Options{Workers: workers}
	return map[string]core.Detector{
		"INDEX":       &core.Index{Params: p, Opts: opts},
		"BOUND":       &core.Bound{Params: p, Opts: opts},
		"BOUND+":      &core.BoundPlus{Params: p, Opts: opts},
		"HYBRID":      &core.Hybrid{Params: p, Opts: opts},
		"INCREMENTAL": &core.Incremental{Params: p, Opts: opts},
		"PAIRWISE":    &core.Pairwise{Params: p, Workers: workers},
	}
}

// runProcess executes the full iterative detection + fusion process,
// capturing every round's detection result.
func runProcess(ds *dataset.Dataset, p bayes.Params, det core.Detector) ([]*core.Result, *fusion.Outcome) {
	var rounds []*core.Result
	tf := &fusion.TruthFinder{Params: p, MaxRounds: 6}
	tf.OnRound = func(round int, _ *dataset.Dataset, _ *bayes.State, res *core.Result) {
		rounds = append(rounds, res)
	}
	out := tf.Run(ds, det)
	return rounds, out
}

func comparePairs(t *testing.T, round int, want, got *core.Result) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("round %d: %d pairs, want %d", round, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		w, g := want.Pairs[i], got.Pairs[i]
		if w != g {
			t.Fatalf("round %d pair %d differs:\n  want %+v\n  got  %+v", round, i, w, g)
		}
	}
}

func compareStats(t *testing.T, round int, want, got core.Stats) {
	t.Helper()
	if got.Computations != want.Computations ||
		got.PairsConsidered != want.PairsConsidered ||
		got.ValuesExamined != want.ValuesExamined ||
		got.EntriesScanned != want.EntriesScanned ||
		got.Rounds != want.Rounds {
		t.Fatalf("round %d stats differ:\n  want %+v\n  got  %+v", round, want, got)
	}
}

// TestParallelEquivalence is the acceptance suite of the parallel engine:
// detectors × worker counts {2, 4, 7} × generator presets, each compared
// round by round against the Workers=1 run of the same configuration.
//
// The scan has two loop nests, chosen per scan by the data (core's sweeps
// rule), and the suite must cross both: book-cs×0.04 and the Stock presets
// are swept, book-full×0.05 — here and not in equivPresets, whose ids key a
// golden file — is walked, which is asserted once at the end.
func TestParallelEquivalence(t *testing.T) {
	p := bayes.DefaultParams()
	swept, walked := 0, 0
	presets := append(equivPresets(), equivPreset{id: "book-full-x0.05", cfg: gen.BookFull(13), scale: 0.05})
	for _, pr := range presets {
		pr := pr
		t.Run(pr.id, func(t *testing.T) {
			if pr.long && testing.Short() {
				t.Skip("large preset skipped in short mode")
			}
			ds := equivDataset(t, pr)
			if core.RuleSweeps(ds, roundTwoState(ds, p), p) {
				swept++
			} else {
				walked++
			}
			seqDets := equivDetectors(p, 1)
			for name, seqDet := range seqDets {
				name, seqDet := name, seqDet
				t.Run(name, func(t *testing.T) {
					seqRounds, seqOut := runProcess(ds, p, seqDet)
					if len(seqRounds) == 0 {
						t.Fatal("sequential run produced no rounds")
					}
					if name == "INCREMENTAL" {
						inc := seqDet.(*core.Incremental)
						if len(inc.History) == 0 {
							t.Fatal("INCREMENTAL never ran an incremental round; enlarge the preset")
						}
					}
					for _, workers := range []int{2, 4, 7} {
						parDet := equivDetectors(p, workers)[name]
						parRounds, parOut := runProcess(ds, p, parDet)
						if len(parRounds) != len(seqRounds) {
							t.Fatalf("workers=%d: %d rounds, want %d", workers, len(parRounds), len(seqRounds))
						}
						for r := range seqRounds {
							comparePairs(t, r+1, seqRounds[r], parRounds[r])
							compareStats(t, r+1, seqRounds[r].Stats, parRounds[r].Stats)
						}
						for d := range seqOut.Truth {
							if parOut.Truth[d] != seqOut.Truth[d] {
								t.Fatalf("workers=%d: truth of item %d differs", workers, d)
							}
						}
						for s := range seqOut.State.A {
							if parOut.State.A[s] != seqOut.State.A[s] {
								t.Fatalf("workers=%d: accuracy of source %d differs", workers, s)
							}
						}
						if name == "INCREMENTAL" {
							seqInc := seqDet.(*core.Incremental)
							parInc := parDet.(*core.Incremental)
							if len(parInc.History) != len(seqInc.History) {
								t.Fatalf("workers=%d: %d incremental rounds, want %d",
									workers, len(parInc.History), len(seqInc.History))
							}
							for r := range seqInc.History {
								if parInc.History[r] != seqInc.History[r] {
									t.Fatalf("workers=%d: pass stats of incremental round %d differ:\n  want %+v\n  got  %+v",
										workers, r+1, seqInc.History[r], parInc.History[r])
								}
							}
						}
					}
				})
			}
		})
	}
	if swept == 0 || walked == 0 {
		t.Errorf("%d presets swept and %d walked: the suite no longer crosses both loop nests", swept, walked)
	}
}

// TestParallelSingleRoundOrderings pins the scan-order options: the
// parallel engine must stay equivalent under the alternative entry
// orderings of Figure 3 (which exercise MaxRemaining-based bounds rather
// than the ByContribution fast path). Its preset also keeps both of
// HYBRID's branches exercised: it has candidate pairs on each side of the
// 16-item share threshold, which is asserted once here.
func TestParallelSingleRoundOrderings(t *testing.T) {
	p := bayes.DefaultParams()
	ds := equivDataset(t, equivPreset{id: "stock-1day", cfg: gen.Stock1Day(7), scale: 0.008})
	rounds, _ := runProcess(ds, p, &core.Hybrid{Params: p})
	var indexStyle, bounded int
	for _, pr := range rounds[0].Pairs {
		if ds.SharedItems(pr.S1, pr.S2) <= 16 {
			indexStyle++
		} else {
			bounded++
		}
	}
	if indexStyle == 0 || bounded == 0 {
		t.Fatalf("preset has %d candidate pairs sharing <= 16 items and %d sharing more; HYBRID needs both to exercise its split",
			indexStyle, bounded)
	}
	for _, opt := range []struct {
		name string
		opts core.Options
	}{
		{"random-order", core.Options{Order: 2, Seed: 42}}, // index.Random
		{"by-provider", core.Options{Order: 1}},            // index.ByProvider
	} {
		opt := opt
		t.Run(opt.name, func(t *testing.T) {
			seqOpts := opt.opts
			seqOpts.Workers = 1
			seq, _ := runProcess(ds, p, &core.Hybrid{Params: p, Opts: seqOpts})
			for _, workers := range []int{2, 7} {
				parOpts := opt.opts
				parOpts.Workers = workers
				par, _ := runProcess(ds, p, &core.Hybrid{Params: p, Opts: parOpts})
				if len(par) != len(seq) {
					t.Fatalf("workers=%d: %d rounds, want %d", workers, len(par), len(seq))
				}
				for r := range seq {
					comparePairs(t, r+1, seq[r], par[r])
					compareStats(t, r+1, seq[r].Stats, par[r].Stats)
				}
			}
		})
	}
}

// TestFreezeRoundEqualsHybrid: the round in which INCREMENTAL freezes its
// index scans on past every pair's decision point to collect exact base
// scores, but what it reports is latched at the decision point — so its
// warm rounds are bit-equal to HYBRID's on the same state (round 1 being
// equal, the fusion step hands both the same state for round 2), for
// every worker count.
func TestFreezeRoundEqualsHybrid(t *testing.T) {
	p := bayes.DefaultParams()
	for _, pr := range equivPresets() {
		pr := pr
		t.Run(pr.id, func(t *testing.T) {
			if pr.long && testing.Short() {
				t.Skip("large preset skipped in short mode")
			}
			ds := equivDataset(t, pr)
			for _, workers := range []int{1, 2, 4, 7} {
				dets := equivDetectors(p, workers)
				hy, _ := runProcess(ds, p, dets["HYBRID"])
				in, _ := runProcess(ds, p, dets["INCREMENTAL"])
				if len(hy) < 2 || len(in) < 2 {
					t.Fatalf("workers=%d: %d HYBRID and %d INCREMENTAL rounds, want at least 2", workers, len(hy), len(in))
				}
				for r := 0; r < 2; r++ {
					comparePairs(t, r+1, hy[r], in[r])
				}
				if in[1].Stats.ValuesExamined != hy[1].Stats.ValuesExamined {
					t.Errorf("workers=%d: freeze round examined %d values, HYBRID %d — post-decision multiplies are not examinations",
						workers, in[1].Stats.ValuesExamined, hy[1].Stats.ValuesExamined)
				}
			}
		})
	}
}

// TestFinalizeFewerPairsThanWorkers: finalisation hands each worker a block
// of pair slots, and with zero, one or three candidate pairs most blocks
// are empty. Every detector must still return the one-worker Result, in
// every round (run under -race this also certifies the block writes).
func TestFinalizeFewerPairsThanWorkers(t *testing.T) {
	p := bayes.DefaultParams()
	for _, c := range []struct {
		pairs   int
		sharers int // sources providing the same value of every shared item
	}{{0, 1}, {1, 2}, {3, 3}} {
		// 400 items: sharing a majority value is weak evidence, and with few
		// of them the whole index is tail set and no pair is a candidate.
		b := dataset.NewBuilder()
		for d := 0; d < 400; d++ {
			for s := 0; s < c.sharers; s++ {
				b.Add(fmt.Sprintf("S%d", s), fmt.Sprintf("D%d", d), "shared")
			}
			b.Add("loner", fmt.Sprintf("D%d", d), "own")
		}
		ds := b.Build()
		for name, seqDet := range equivDetectors(p, 1) {
			seq, _ := runProcess(ds, p, seqDet)
			if got := len(seq[0].Pairs); name != "PAIRWISE" && got != c.pairs {
				t.Fatalf("%s: %d candidate pairs in round 1, want %d", name, got, c.pairs)
			}
			for _, workers := range []int{2, 4, 7} {
				par, _ := runProcess(ds, p, equivDetectors(p, workers)[name])
				if len(par) != len(seq) {
					t.Fatalf("%s workers=%d: %d rounds, want %d", name, workers, len(par), len(seq))
				}
				for r := range seq {
					comparePairs(t, r+1, seq[r], par[r])
					compareStats(t, r+1, seq[r].Stats, par[r].Stats)
				}
			}
		}
	}
}
