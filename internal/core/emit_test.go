package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

// referenceEmit is INCREMENTAL's emission as it was before the rows were
// built at the freeze: every pair's row recomputed from the detector's
// state — base score plus the round's exact deltas, the posterior of that,
// the current decision — into a fresh slice. Run after a round, before the
// next one clears the delta columns, it gives what that round must have
// returned.
func referenceEmit(d *Incremental) []PairResult {
	p := d.Params
	pairs := make([]PairResult, d.pm.Len())
	for slot := range pairs {
		s1, s2 := d.pm.Key(int32(slot)).Sources()
		cTo := d.cTo[slot] + d.dNegTo[slot] + d.dPosTo[slot]
		cFrom := d.cFrom[slot] + d.dNegFrom[slot] + d.dPosFrom[slot]
		prIndep, prTo, prFrom := p.Posterior(cTo, cFrom)
		pairs[slot] = PairResult{
			S1: s1, S2: s2, CTo: cTo, CFrom: cFrom,
			PrIndep: prIndep, PrTo: prTo, PrFrom: prFrom,
			Copying: d.copying[slot],
		}
	}
	return pairs
}

// perturbed returns a copy of st with k random value probabilities
// redrawn and accuracy drift added to the listed sources.
func perturbed(rng *rand.Rand, st *bayes.State, k int, drift map[int]float64) *bayes.State {
	out := st.Clone()
	for i := 0; i < k; i++ {
		d := rng.Intn(len(out.P))
		if len(out.P[d]) > 0 {
			out.P[d][rng.Intn(len(out.P[d]))] = 0.01 + 0.98*rng.Float64()
		}
	}
	for s, da := range drift {
		out.A[s] = min(0.99, max(0.01, out.A[s]+da))
	}
	return out
}

// emissionSchedule is the state of each round of an emission run: two warm
// rounds and an unchanged round on st0, value drift twice (touched pairs,
// the second round after a dirty one), the base again twice (no pair
// touched after a dirty round, then a reused slice), accuracy drift on one
// source (pass 3 recomputes its pairs and may flip them), the base again,
// then a fresh random state (a rebase) and an unchanged round after it.
func emissionSchedule(rng *rand.Rand, ds *dataset.Dataset, st0 *bayes.State) []*bayes.State {
	st1 := perturbed(rng, st0, 3, nil)
	st2 := perturbed(rng, st0, 0, map[int]float64{rng.Intn(ds.NumSources()): 0.3})
	st3 := randomState(rng, ds)
	return []*bayes.State{st0, st0, st0, st1, st1, st0, st0, st2, st0, st3, st3}
}

// TestIncrementalEmission: every round INCREMENTAL returns — rows built at
// the freeze, a reused slice, or a copy of the base rows with the current
// decisions and the touched pairs recomputed — equals, bit for bit,
// the full recomputation of referenceEmit; the freeze's base rows equal it
// too; and no Result returned earlier changes in a later round. Workers 1,
// 2 and 4, on the test kit's Book-CS and Stock presets and a constructed
// instance.
func TestIncrementalEmission(t *testing.T) {
	p := bayes.DefaultParams()
	check := func(t *testing.T, ds *dataset.Dataset, sts []*bayes.State) {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
				d := &Incremental{Params: p, Opts: Options{Workers: workers}}
				var kept []*Result
				var copies [][]PairResult
				reused, rebased := 0, false
				for i, st := range sts {
					round := i + 1
					res := d.DetectRound(ds, st, round)
					switch {
					case round == warmRounds:
						if diff := testkit.Diff(d.baseRows, referenceEmit(d)); diff != "" {
							t.Fatalf("base rows: %s", diff)
						}
					case round > warmRounds:
						if diff := testkit.Diff(res.Pairs, referenceEmit(d)); diff != "" {
							t.Fatalf("round %d: %s", round, diff)
						}
						prev := kept[len(kept)-1].Pairs
						if len(res.Pairs) > 0 && len(prev) > 0 && &res.Pairs[0] == &prev[0] {
							reused++
						}
						rebased = rebased || d.LastPass.Rebased
					}
					kept = append(kept, res)
					copies = append(copies, slices.Clone(res.Pairs))
				}
				for i, res := range kept {
					if diff := testkit.Diff(res.Pairs, copies[i]); diff != "" {
						t.Fatalf("round %d's Result changed after later rounds: %s", i+1, diff)
					}
				}
				if reused == 0 || !rebased {
					t.Fatalf("schedule missed a path: %d reused slices, rebased %v", reused, rebased)
				}
			})
		}
	}
	testkit.ForEach(t, testkit.Lookup("book-cs", "stock-1day"), func(t *testing.T, ds *dataset.Dataset) {
		rng := rand.New(rand.NewSource(3))
		check(t, ds, emissionSchedule(rng, ds, randomState(rng, ds)))
	})
	t.Run("constructed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		ds, st0 := randomInstance(rng, 12, 80)
		check(t, ds, emissionSchedule(rng, ds, st0))
	})
}

// TestIncrementalKeepsFlippedDecision: a decision pass 3 changes stays in
// the emitted rows in the rounds after, when the pair is settled by the
// cheap passes and no row is recomputed. Pass 1 checks a decision against
// the base scores, so the only decision it can settle is one they support:
// pass 3 flips (A, B) away from its base decision in round 3 (A's accuracy
// drifted) and back in round 4 (the base state again), and in round 5
// pass 1 settles it, on the slice round 4 returned.
func TestIncrementalKeepsFlippedDecision(t *testing.T) {
	p := exampleParams()
	ds := sharedRuns(2) // (A, B) share "t" on both items
	st0 := uniformState(ds, 0.5, 0.5)
	st1 := st0.Clone()
	st1.A[0] = 0.95 // A: a copier this accurate explains the shared values
	for _, workers := range []int{1, 2, 4} {
		d := &Incremental{Params: p, Opts: Options{Workers: workers}}
		d.DetectRound(ds, st0, 1)
		d.DetectRound(ds, st0, 2)
		slot := d.pm.Get(0, 1)
		if slot < 0 || !d.copying[slot] || max(d.cTo[slot], d.cFrom[slot]) < p.ThetaCp() {
			t.Fatalf("workers %d: (A, B) must be a base copying pair past θcp, so pass 1 can settle it", workers)
		}
		want := []bool{false, true, true}
		var prev []PairResult
		for i, st := range []*bayes.State{st1, st0, st0} {
			round := 3 + i
			res := d.DetectRound(ds, st, round)
			if got := res.Pairs[slot].Copying; got != want[i] {
				t.Fatalf("workers %d round %d: (A, B) copying = %v, want %v", workers, round, got, want[i])
			}
			if diff := testkit.Diff(res.Pairs, referenceEmit(d)); diff != "" {
				t.Fatalf("workers %d round %d: %s", workers, round, diff)
			}
			if round == 5 {
				if d.LastPass.SettledPass1 != d.pm.Len() {
					t.Fatalf("workers %d round 5: %+v, want every pair settled in pass 1", workers, d.LastPass)
				}
				if &res.Pairs[0] != &prev[0] {
					t.Fatalf("workers %d round 5: an unchanged round after round 4 must return round 4's slice", workers)
				}
			}
			prev = res.Pairs
		}
	}
}
