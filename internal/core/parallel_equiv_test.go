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
	"copydetect/internal/testkit"
)

// paperPresets are the four paper workloads of the equivalence suites;
// their ids key testdata/scores.golden and hybrid_copying.golden.
var paperPresets = testkit.Lookup("book-cs", "stock-1day", "book-full", "stock-2wk")

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

// process is one full iterative detection + fusion run: every round's
// Result, the outcome, and INCREMENTAL's pass statistics.
type process struct {
	Rounds  []*core.Result
	Out     *fusion.Outcome
	History []core.PassStats
}

// untimed masks the wall-clock timers, the only fields of a process that
// legitimately differ between identical runs.
var untimed = []string{"IndexBuild", "Detect", "FusionTime"}

func runProcess(ds *dataset.Dataset, p bayes.Params, det core.Detector) process {
	var pr process
	tf := &fusion.TruthFinder{Params: p, MaxRounds: 6}
	tf.OnRound = func(round int, _ *dataset.Dataset, _ *bayes.State, res *core.Result) {
		pr.Rounds = append(pr.Rounds, res)
	}
	pr.Out = tf.Run(ds, det)
	if inc, ok := det.(*core.Incremental); ok {
		pr.History = inc.History
	}
	return pr
}

// TestParallelEquivalence is the acceptance suite of the parallel engine:
// detectors × worker counts {2, 4, 7} × generator presets, each compared
// round by round against the Workers=1 run of the same configuration.
//
// The scan has two loop nests, chosen per scan by the data (core's sweeps
// rule), and the suite must cross both: book-cs×0.04 and the Stock presets
// are swept, book-full×0.05 — here and not in paperPresets, whose ids key
// the golden files — is walked, which is asserted once at the end.
func TestParallelEquivalence(t *testing.T) {
	p := bayes.DefaultParams()
	swept, walked := 0, 0
	testkit.ForEach(t, append(paperPresets, testkit.Lookup("book-full-x0.05")...), func(t *testing.T, ds *dataset.Dataset) {
		if core.RuleSweeps(ds, roundTwoState(ds, p), p) {
			swept++
		} else {
			walked++
		}
		for name, seqDet := range equivDetectors(p, 1) {
			t.Run(name, func(t *testing.T) {
				seq := runProcess(ds, p, seqDet)
				if len(seq.Rounds) == 0 {
					t.Fatal("sequential run produced no rounds")
				}
				if name == "INCREMENTAL" && len(seq.History) == 0 {
					t.Fatal("INCREMENTAL never ran an incremental round; enlarge the preset")
				}
				for _, workers := range []int{2, 4, 7} {
					if d := testkit.Diff(runProcess(ds, p, equivDetectors(p, workers)[name]), seq, untimed...); d != "" {
						t.Fatalf("workers=%d: %s", workers, d)
					}
				}
			})
		}
	})
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
	ds := testkit.Generate(t, testkit.Lookup("stock-1day-x0.008")[0])
	var indexStyle, bounded int
	for _, pr := range runProcess(ds, p, &core.Hybrid{Params: p}).Rounds[0].Pairs {
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
			seq := runProcess(ds, p, &core.Hybrid{Params: p, Opts: seqOpts}).Rounds
			for _, workers := range []int{2, 7} {
				parOpts := opt.opts
				parOpts.Workers = workers
				par := runProcess(ds, p, &core.Hybrid{Params: p, Opts: parOpts}).Rounds
				if d := testkit.Diff(par, seq, untimed...); d != "" {
					t.Fatalf("workers=%d: %s", workers, d)
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
	testkit.ForEach(t, paperPresets, func(t *testing.T, ds *dataset.Dataset) {
		for _, workers := range []int{1, 2, 4, 7} {
			dets := equivDetectors(p, workers)
			hy, in := runProcess(ds, p, dets["HYBRID"]).Rounds, runProcess(ds, p, dets["INCREMENTAL"]).Rounds
			if len(hy) < 2 || len(in) < 2 {
				t.Fatalf("workers=%d: %d HYBRID and %d INCREMENTAL rounds, want at least 2", workers, len(hy), len(in))
			}
			if d := testkit.Diff(in[:2], hy[:2], "Stats"); d != "" {
				t.Fatalf("workers=%d: %s", workers, d)
			}
			if in[1].Stats.ValuesExamined != hy[1].Stats.ValuesExamined {
				t.Errorf("workers=%d: freeze round examined %d values, HYBRID %d — post-decision multiplies are not examinations",
					workers, in[1].Stats.ValuesExamined, hy[1].Stats.ValuesExamined)
			}
		}
	})
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
			seq := runProcess(ds, p, seqDet).Rounds
			if got := len(seq[0].Pairs); name != "PAIRWISE" && got != c.pairs {
				t.Fatalf("%s: %d candidate pairs in round 1, want %d", name, got, c.pairs)
			}
			for _, workers := range []int{2, 4, 7} {
				if d := testkit.Diff(runProcess(ds, p, equivDetectors(p, workers)[name]).Rounds, seq, untimed...); d != "" {
					t.Fatalf("%s workers=%d: %s", name, workers, d)
				}
			}
		}
	}
}
