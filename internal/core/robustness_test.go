package core

import (
	"math"
	"math/rand"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/testkit"
)

// TestExtremeStatesNoNaN injects degenerate statistical states — value
// probabilities pinned to 0 or 1, accuracies at their clamps — and checks
// that no detector emits NaN scores or probabilities.
func TestExtremeStatesNoNaN(t *testing.T) {
	p := bayes.DefaultParams()
	rng := rand.New(rand.NewSource(17))
	ds, st := randomInstance(rng, 6, 30)

	states := map[string]func(){
		"all-true": func() {
			for d := range st.P {
				for v := range st.P[d] {
					st.P[d][v] = 1
				}
			}
		},
		"all-false": func() {
			for d := range st.P {
				for v := range st.P[d] {
					st.P[d][v] = 0
				}
			}
		},
		"clamped-accuracies": func() {
			for s := range st.A {
				if s%2 == 0 {
					st.A[s] = 0.01
				} else {
					st.A[s] = 0.99
				}
			}
		},
	}
	for name, mutate := range states {
		mutate()
		for _, det := range []Detector{
			&Pairwise{Params: p},
			&Index{Params: p},
			&Bound{Params: p},
			&BoundPlus{Params: p},
			&Hybrid{Params: p},
		} {
			res := det.DetectRound(ds, st, 1)
			for _, pr := range res.Pairs {
				if math.IsNaN(pr.PrIndep) || math.IsNaN(pr.PrTo) || math.IsNaN(pr.PrFrom) {
					t.Errorf("%s/%s: NaN posterior for (S%d,S%d)", name, det.Name(), pr.S1, pr.S2)
				}
				if math.IsNaN(pr.CTo) || math.IsNaN(pr.CFrom) {
					t.Errorf("%s/%s: NaN score for (S%d,S%d)", name, det.Name(), pr.S1, pr.S2)
				}
			}
		}
	}
}

// TestIncrementalSurvivesExtremeDrift: feeding the incremental detector a
// sequence of pathological states must not panic or emit NaNs.
func TestIncrementalSurvivesExtremeDrift(t *testing.T) {
	p := bayes.DefaultParams()
	rng := rand.New(rand.NewSource(23))
	ds, st := randomInstance(rng, 8, 60)
	inc := &Incremental{Params: p}
	for round := 1; round <= 8; round++ {
		res := inc.DetectRound(ds, st, round)
		for _, pr := range res.Pairs {
			if math.IsNaN(pr.CTo) || math.IsNaN(pr.PrIndep) {
				t.Fatalf("round %d: NaN in incremental result", round)
			}
		}
		// Alternate between extremes.
		for d := range st.P {
			for v := range st.P[d] {
				if round%2 == 0 {
					st.P[d][v] = 0.001
				} else {
					st.P[d][v] = 0.999
				}
			}
		}
	}
}

// TestSingleSourceDataset: one source, nothing to detect, nothing breaks.
func TestSingleSourceDataset(t *testing.T) {
	p := bayes.DefaultParams()
	rng := rand.New(rand.NewSource(31))
	ds, st := randomInstance(rng, 2, 5) // smallest legal instance
	for _, det := range []Detector{
		&Pairwise{Params: p}, &Index{Params: p}, &Hybrid{Params: p}, &Incremental{Params: p},
	} {
		res := det.DetectRound(ds, st, 1)
		if res == nil {
			t.Fatalf("%s returned nil", det.Name())
		}
	}
}

// TestStructCacheInvalidatesOnNewDataset: reusing one detector across
// different datasets must not leak the structural cache.
func TestStructCacheInvalidatesOnNewDataset(t *testing.T) {
	p := bayes.DefaultParams()
	det := &Index{Params: p}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 5+int(seed), 20)
		res := det.DetectRound(ds, st, 1)
		fresh := (&Index{Params: p}).DetectRound(ds, st, 1)
		if d := testkit.Diff(res, fresh, "IndexBuild", "Detect"); d != "" {
			t.Fatalf("seed %d: cached detector diverged: %s", seed, d)
		}
	}
}
