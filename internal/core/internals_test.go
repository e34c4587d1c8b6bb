package core

import (
	"math"
	"math/rand"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
)

func TestDecideMatchesThresholds(t *testing.T) {
	p := exampleParams()
	// Exactly at θcp in one direction: posterior must not exceed 0.5.
	copying, prIndep, _, _ := decide(p.LnPriorRatio(), p.ThetaCp(), -100)
	if !copying || prIndep > 0.5 {
		t.Errorf("decide(θcp, -∞) = %v, PrIndep %v", copying, prIndep)
	}
	// Both just below θind: no copying.
	copying, prIndep, _, _ = decide(p.LnPriorRatio(), p.ThetaInd()-1e-9, p.ThetaInd()-1e-9)
	if copying || prIndep <= 0.5 {
		t.Errorf("decide(θind−, θind−) = %v, PrIndep %v", copying, prIndep)
	}
}

func TestEstimateOverlapSeenClamps(t *testing.T) {
	ds, _ := dataset.Motivating()
	// Pair (S2, S3) with l = 5 shared items, n0 = 4 shared values so far.
	// With no values seen, h would be 0 but must clamp up to n0.
	cov2, cov3 := int32(ds.Coverage(2)), int32(ds.Coverage(3))
	if h := estimateOverlapSeen(0, 0, cov2, cov3, 5, 4); h != 4 {
		t.Errorf("h = %v, want clamp to n0 = 4", h)
	}
	// With everything seen, h must clamp down to l.
	if h := estimateOverlapSeen(100, 100, cov2, cov3, 5, 4); h != 5 {
		t.Errorf("h = %v, want clamp to l = 5", h)
	}
}

// TestBoundTimersSkipRecomputation: BOUND+ must evaluate strictly fewer
// bound formulas than BOUND on a workload with long shared streaks.
func TestBoundTimersSkipRecomputation(t *testing.T) {
	// Construct two sources sharing 60 items, half same values, so bound
	// checks would fire on every shared entry under plain BOUND.
	b := dataset.NewBuilder()
	for d := 0; d < 60; d++ {
		item := "D" + itoa(d)
		val := "v" + itoa(d%7)
		b.Add("A", item, val)
		if d%2 == 0 {
			b.Add("B", item, val)
		} else {
			b.Add("B", item, "w"+itoa(d%5))
		}
		b.Add("C", item, val) // third source so values are indexed
	}
	ds := b.Build()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	for d := range st.P {
		for v := range st.P[d] {
			st.P[d][v] = 0.4
		}
	}
	p := exampleParams()
	bound := (&Bound{Params: p}).DetectRound(ds, st, 1)
	plus := (&BoundPlus{Params: p}).DetectRound(ds, st, 1)
	if plus.Stats.Computations >= bound.Stats.Computations {
		t.Errorf("BOUND+ computations (%d) should be below BOUND's (%d)",
			plus.Stats.Computations, bound.Stats.Computations)
	}
	assertSameDecisions(t, plus, bound, "BOUND+ vs BOUND on streak workload")
}

func TestAdaptiveRhoV(t *testing.T) {
	// A clear cluster of big movers above a gap.
	rho := adaptiveRhoVInto([]float64{2.0, 1.9, 0.01, 0.02, 0.015}, nil)
	if rho > 2.0 || rho < 1.0 {
		t.Errorf("adaptive rho = %v, want the big-mover cluster threshold (1.9)", rho)
	}
	// All noise: nothing is big.
	if rho := adaptiveRhoVInto([]float64{1e-9, 1e-8, 0}, nil); !math.IsInf(rho, 1) {
		t.Errorf("pure-noise deltas should give +Inf, got %v", rho)
	}
	// Single significant change.
	if rho := adaptiveRhoVInto([]float64{0.5}, nil); rho != 0.5 {
		t.Errorf("single delta rho = %v, want 0.5", rho)
	}
	// Empty.
	if rho := adaptiveRhoVInto(nil, nil); !math.IsInf(rho, 1) {
		t.Errorf("empty deltas should give +Inf")
	}
}

// TestIncrementalStableStateZeroEscalation: when the state does not move
// between rounds, every pair must settle in pass 1 with (almost) no work.
func TestIncrementalStableStateZeroEscalation(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	inc := &Incremental{Params: p}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)
	res := inc.DetectRound(ds, st, 3) // identical state
	if inc.LastPass.BigEntries != 0 {
		t.Errorf("no drift should mean no big entries, got %d", inc.LastPass.BigEntries)
	}
	if inc.LastPass.SettledPass2+inc.LastPass.SettledPass3 != 0 {
		t.Errorf("no drift should settle everything in pass 1: %+v", inc.LastPass)
	}
	if inc.LastPass.Rebased {
		t.Error("no drift must not trigger a rebase")
	}
	// Decisions identical to the exact algorithms.
	idx := (&Index{Params: p}).DetectRound(ds, st, 1)
	assertSameDecisions(t, res, idx, "INCREMENTAL stable state vs INDEX")
}

// TestIncrementalRebaseOnMassiveDrift: turning the statistical state
// upside down must trigger a rebase, after which decisions are exact.
func TestIncrementalRebaseOnMassiveDrift(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	inc := &Incremental{Params: p}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)

	flipped := st.Clone()
	for d := range flipped.P {
		for v := range flipped.P[d] {
			flipped.P[d][v] = 1 - flipped.P[d][v]
		}
	}
	res := inc.DetectRound(ds, flipped, 3)
	// The motivating index has only 13 entries, below the rebase floor of
	// 64 big entries, so the drift is instead absorbed by escalation:
	// decisions must still be exact, and work must not stay in pass 1.
	if inc.LastPass.BigEntries == 0 {
		t.Error("massive drift should classify entries as big changes")
	}
	if inc.LastPass.SettledPass2+inc.LastPass.SettledPass3 == 0 && !inc.LastPass.Rebased {
		t.Error("massive drift should escalate past pass 1 or rebase")
	}
	idx := (&Index{Params: p}).DetectRound(ds, flipped, 1)
	assertSameDecisions(t, res, idx, "INCREMENTAL after massive drift vs INDEX")
}

// TestIncrementalRebaseOnLargeIndexDrift: on an index large enough to
// clear the rebase floor, flipping the state must trigger a rebase.
func TestIncrementalRebaseOnLargeIndexDrift(t *testing.T) {
	rng := newRand(5)
	ds, st := randomInstance(rng, 12, 400)
	p := exampleParams()
	inc := &Incremental{Params: p}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)
	flipped := st.Clone()
	for d := range flipped.P {
		for v := range flipped.P[d] {
			flipped.P[d][v] = 1 - flipped.P[d][v]
		}
	}
	res := inc.DetectRound(ds, flipped, 3)
	if !inc.LastPass.Rebased {
		t.Fatal("large-index massive drift should trigger a rebase")
	}
	idx := (&Index{Params: p}).DetectRound(ds, flipped, 1)
	assertSameDecisions(t, res, idx, "INCREMENTAL after rebase vs INDEX")
}

// TestIncrementalAccuracyDriftForcesExact: a big accuracy change on one
// source must push all its pairs to exact recomputation (pass 3).
func TestIncrementalAccuracyDriftForcesExact(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	inc := &Incremental{Params: p}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)

	drifted := st.Clone()
	drifted.A[2] = 0.9 // S2 jumps from 0.2 — well past ρA = 0.2
	inc.DetectRound(ds, drifted, 3)
	if inc.LastPass.SettledPass3 == 0 {
		t.Error("big accuracy drift should force exact recomputation for S2's pairs")
	}
}

// TestIncrementalHistoryAccumulates: one entry per incremental round.
func TestIncrementalHistoryAccumulates(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	inc := &Incremental{Params: p}
	for round := 1; round <= 5; round++ {
		inc.DetectRound(ds, st, round)
	}
	if len(inc.History) != 3 { // rounds 3, 4, 5
		t.Errorf("history has %d entries, want 3", len(inc.History))
	}
	inc.Reset()
	if len(inc.History) != 0 || inc.prepared {
		t.Error("Reset must clear history and preparation")
	}
}

// TestIncrementalPrepareFallback: calling round 3 without the warm rounds
// must prepare on the spot and produce exact decisions.
func TestIncrementalPrepareFallback(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	inc := &Incremental{Params: p}
	res := inc.DetectRound(ds, st, 3)
	idx := (&Index{Params: p}).DetectRound(ds, st, 1)
	assertSameDecisions(t, res, idx, "INCREMENTAL cold start vs INDEX")
}

// TestResultCopyingSetAndPairs: Result helpers behave.
func TestResultCopyingSetAndPairs(t *testing.T) {
	r := &Result{NumSources: 4, Pairs: []PairResult{
		{S1: 0, S2: 1, Copying: true},
		{S1: 1, S2: 2, Copying: false},
		{S1: 2, S2: 3, Copying: true},
	}}
	if got := len(r.CopyingPairs()); got != 2 {
		t.Errorf("CopyingPairs = %d, want 2", got)
	}
	set := r.CopyingSet()
	if !set[int64(0)<<32|1] || !set[int64(2)<<32|3] || set[int64(1)<<32|2] {
		t.Errorf("CopyingSet wrong: %v", set)
	}
}

// TestIndexVsPairwiseComputationRatio: on the motivating example the index
// must cut computations by more than half (Example 3.6: 154 vs 362).
func TestIndexVsPairwiseComputationRatio(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	ires := (&Index{Params: p}).DetectRound(ds, st, 1)
	pres := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
	if ires.Stats.Computations*2 > pres.Stats.Computations {
		t.Errorf("INDEX should halve computations: %d vs %d",
			ires.Stats.Computations, pres.Stats.Computations)
	}
}

// TestBoundUnderRandomOrderSound: the MaxRemaining-based M keeps BOUND's
// copying conclusions sound even under adversarially bad entry orders.
func TestBoundUnderRandomOrderSound(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	exact := (&Index{Params: p}).DetectRound(ds, st, 1).CopyingSet()
	for seed := int64(0); seed < 20; seed++ {
		res := (&Bound{Params: p, Opts: Options{Order: index.Random, Seed: seed}}).DetectRound(ds, st, 1)
		for _, pr := range res.Pairs {
			k := int64(pr.S1)<<32 | int64(uint32(pr.S2))
			if pr.Copying && !exact[k] {
				t.Fatalf("seed %d: unsound copying conclusion for (S%d,S%d)", seed, pr.S1, pr.S2)
			}
		}
	}
}

// newRand is a tiny helper to keep imports tidy in this file.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
