package core

import (
	"math"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/testkit"
)

func exampleParams() bayes.Params { return bayes.Params{Alpha: 0.1, S: 0.8, N: 50} }

// motivatingState reconstructs the statistical knowledge of the worked
// examples: Table I accuracies, Table III value probabilities.
func motivatingState(t testing.TB) (*dataset.Dataset, *bayes.State) {
	t.Helper()
	ds, accu := dataset.Motivating()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.A = accu
	for d := range st.P {
		for v := range st.P[d] {
			st.P[d][v] = 0.5
		}
	}
	for label, pv := range dataset.MotivatingValueProbs() {
		d, v := dataset.LookupValue(ds, label)
		if d < 0 {
			t.Fatalf("label %q not in fixture", label)
		}
		st.P[d][v] = pv
	}
	return ds, st
}

func findPair(t testing.TB, res *Result, s1, s2 dataset.SourceID) *PairResult {
	t.Helper()
	for i := range res.Pairs {
		if res.Pairs[i].S1 == s1 && res.Pairs[i].S2 == s2 {
			return &res.Pairs[i]
		}
	}
	return nil
}

// TestPairwiseExample21 reproduces Example 2.1: C→ = C← ≈ 11.58 for
// (S2,S3) with Pr(⊥) ≈ 0.00004, and Pr(⊥) ≈ 0.79 for (S0,S1).
func TestPairwiseExample21(t *testing.T) {
	ds, st := motivatingState(t)
	pw := &Pairwise{Params: exampleParams()}
	res := pw.DetectRound(ds, st, 1)

	p23 := findPair(t, res, 2, 3)
	if p23 == nil {
		t.Fatal("pair (S2,S3) missing")
	}
	if math.Abs(p23.CTo-11.58) > 0.05 || math.Abs(p23.CFrom-11.58) > 0.05 {
		t.Errorf("C→/C←(S2,S3) = %.3f/%.3f, want ≈ 11.58", p23.CTo, p23.CFrom)
	}
	if p23.PrIndep > 0.0001 {
		t.Errorf("Pr(S2⊥S3) = %.6f, want ≈ 0.00004", p23.PrIndep)
	}
	if !p23.Copying {
		t.Error("(S2,S3) must be decided copying")
	}

	p01 := findPair(t, res, 0, 1)
	if p01 == nil {
		t.Fatal("pair (S0,S1) missing")
	}
	if p01.PrIndep < 0.75 || p01.PrIndep > 0.84 {
		t.Errorf("Pr(S0⊥S1) = %.3f, want ≈ 0.79", p01.PrIndep)
	}
	if p01.Copying {
		t.Error("(S0,S1) must be decided non-copying")
	}

	// PAIRWISE examines all 45 pairs and 181 shared items → 362
	// per-direction computations (Example 3.6 prints 183/366; Table I
	// reconstructs to 181, see the dataset tests).
	if res.Stats.PairsConsidered != 45 {
		t.Errorf("pairs considered = %d, want 45", res.Stats.PairsConsidered)
	}
	if res.Stats.Computations != 362 {
		t.Errorf("computations = %d, want 362", res.Stats.Computations)
	}
}

// TestIndexExample36 reproduces Example 3.6: INDEX examines 26 pairs and
// 51 shared values, for 51·2 + 26·2 = 154 computations, and reaches the
// same decisions as PAIRWISE.
func TestIndexExample36(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	res := (&Index{Params: p}).DetectRound(ds, st, 1)

	if res.Stats.PairsConsidered != 26 {
		t.Errorf("pairs considered = %d, want 26", res.Stats.PairsConsidered)
	}
	if res.Stats.ValuesExamined != 51 {
		t.Errorf("shared values examined = %d, want 51", res.Stats.ValuesExamined)
	}
	if res.Stats.Computations != 154 {
		t.Errorf("computations = %d, want 154", res.Stats.Computations)
	}

	pw := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
	assertSameDecisions(t, res, pw, "INDEX vs PAIRWISE")
}

// assertSameDecisions verifies two results agree on the copying set.
func assertSameDecisions(t testing.TB, a, b *Result, what string) {
	t.Helper()
	if d := testkit.Diff(a.CopyingSet(), b.CopyingSet()); d != "" {
		t.Errorf("%s: copying sets differ at pair key S1<<32|S2 %s", what, d)
	}
}

// TestIndexScoresMatchPairwise: for every pair INDEX instantiates, its
// exact scores equal PAIRWISE's.
func TestIndexScoresMatchPairwise(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	ires := (&Index{Params: p}).DetectRound(ds, st, 1)
	pres := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
	for i := range ires.Pairs {
		ip := &ires.Pairs[i]
		pp := findPair(t, pres, ip.S1, ip.S2)
		if pp == nil {
			t.Fatalf("pair (S%d,S%d) missing from PAIRWISE", ip.S1, ip.S2)
		}
		if math.Abs(ip.CTo-pp.CTo) > 1e-9 || math.Abs(ip.CFrom-pp.CFrom) > 1e-9 {
			t.Errorf("scores of (S%d,S%d) differ: %.6f/%.6f vs %.6f/%.6f",
				ip.S1, ip.S2, ip.CTo, ip.CFrom, pp.CTo, pp.CFrom)
		}
	}
}

// TestBoundExample42 reproduces Example 4.2's decisions: (S2,S3) is
// concluded copying after seeing only 2 of its 4 shared values, (S0,S1)
// non-copying after 3, and overall BOUND examines fewer shared values
// than INDEX (33 vs 51 in the paper's accounting).
func TestBoundExample42(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	bres := (&Bound{Params: p}).DetectRound(ds, st, 1)
	ires := (&Index{Params: p}).DetectRound(ds, st, 1)

	p23 := findPair(t, bres, 2, 3)
	if p23 == nil || !p23.Copying {
		t.Fatal("(S2,S3) must be decided copying by BOUND")
	}
	p01 := findPair(t, bres, 0, 1)
	if p01 == nil || p01.Copying {
		t.Fatal("(S0,S1) must be decided non-copying by BOUND")
	}
	if bres.Stats.ValuesExamined >= ires.Stats.ValuesExamined {
		t.Errorf("BOUND examined %d shared values, INDEX %d; early termination should examine fewer",
			bres.Stats.ValuesExamined, ires.Stats.ValuesExamined)
	}
	assertSameDecisions(t, bres, ires, "BOUND vs INDEX")
}

// TestBoundPlusSameDecisionsFewerComputations: BOUND+ must agree with
// BOUND while skipping bound recomputations.
func TestBoundPlusSameDecisionsFewerComputations(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	bres := (&Bound{Params: p}).DetectRound(ds, st, 1)
	bpres := (&BoundPlus{Params: p}).DetectRound(ds, st, 1)
	assertSameDecisions(t, bpres, bres, "BOUND+ vs BOUND")
	if bpres.Stats.Computations > bres.Stats.Computations {
		t.Errorf("BOUND+ used %d computations, BOUND %d; the timers must not add work",
			bpres.Stats.Computations, bres.Stats.Computations)
	}
}

// TestHybridEqualsIndexOnSmallOverlap: every pair of the motivating
// example shares at most 5 items, far below the threshold of 16, so
// HYBRID degenerates to INDEX exactly.
func TestHybridEqualsIndexOnSmallOverlap(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	hres := (&Hybrid{Params: p}).DetectRound(ds, st, 1)
	ires := (&Index{Params: p}).DetectRound(ds, st, 1)
	if hres.Stats.Computations != ires.Stats.Computations {
		t.Errorf("HYBRID computations = %d, INDEX = %d; should be identical when every l ≤ 16",
			hres.Stats.Computations, ires.Stats.Computations)
	}
	assertSameDecisions(t, hres, ires, "HYBRID vs INDEX")
}

// TestHybridForcedBounds exercises the path HYBRID takes above its share
// threshold — no pair of the example reaches it — by running BOUND+
// itself, which bounds every pair.
func TestHybridForcedBounds(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	bres := (&BoundPlus{Params: p}).DetectRound(ds, st, 1)
	ires := (&Index{Params: p}).DetectRound(ds, st, 1)
	assertSameDecisions(t, bres, ires, "BOUND+ (every pair bounded) vs INDEX")
}

// TestParallelIndexMatchesSequential: the Section VIII parallelization
// must produce identical decisions and scores.
func TestParallelIndexMatchesSequential(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	seq := (&Index{Params: p}).DetectRound(ds, st, 1)
	par := (&Index{Params: p, Opts: Options{Workers: 4}}).DetectRound(ds, st, 1)
	if d := testkit.Diff(par, seq, "IndexBuild", "Detect"); d != "" {
		t.Errorf("parallel vs sequential INDEX: %s", d)
	}
}

// TestOrderingsSameDecisions: the entry processing order (Figure 3)
// affects cost, never decisions, for the exact INDEX algorithm.
func TestOrderingsSameDecisions(t *testing.T) {
	ds, st := motivatingState(t)
	p := exampleParams()
	base := (&Index{Params: p}).DetectRound(ds, st, 1)
	for _, ord := range []index.Order{index.ByProvider, index.Random} {
		res := (&Index{Params: p, Opts: Options{Order: ord, Seed: 3}}).DetectRound(ds, st, 1)
		assertSameDecisions(t, res, base, "INDEX order "+ord.String())
	}
	// BOUND's estimates stay sound under any order thanks to the
	// remaining-maximum M; decisions should match here too.
	for _, ord := range []index.Order{index.ByProvider, index.Random} {
		res := (&Bound{Params: p, Opts: Options{Order: ord, Seed: 3}}).DetectRound(ds, st, 1)
		assertSameDecisions(t, res, base, "BOUND order "+ord.String())
	}
}

// TestStatsAccounting sanity-checks the Stats helpers.
func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.Add(Stats{Computations: 3, PairsConsidered: 1, ValuesExamined: 2, EntriesScanned: 5, Rounds: 1})
	s.Add(Stats{Computations: 7, Rounds: 1})
	if s.Computations != 10 || s.Rounds != 2 || s.ValuesExamined != 2 {
		t.Errorf("Stats.Add broken: %+v", s)
	}
}
