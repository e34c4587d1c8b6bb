package fusion

import (
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

func exampleParams() bayes.Params { return bayes.Params{Alpha: 0.1, S: 0.8, N: 50} }

// TestIterativeMotivating runs the full loop of Section II on the
// motivating example with PAIRWISE and checks the qualitative outcome the
// paper reports (Tables I and II): the copier cliques S2–S4 and S6–S8 are
// detected, the honest high-accuracy sources are not, every true capital
// wins, and the converged accuracies separate good from bad sources.
func TestIterativeMotivating(t *testing.T) {
	ds, _ := dataset.Motivating()
	tf := &TruthFinder{Params: exampleParams()}
	out := tf.Run(ds, &core.Pairwise{Params: exampleParams()})

	if out.Rounds < 3 {
		t.Errorf("converged suspiciously fast: %d rounds", out.Rounds)
	}

	// All five true capitals must win.
	for d, want := range ds.Truth {
		if out.Truth[d] != want {
			t.Errorf("item %s decided %q, want %q", ds.ItemNames[d],
				ds.ValueNames[d][out.Truth[d]], ds.ValueNames[d][want])
		}
	}

	// Copying within {S2,S3,S4} and within {S6,S7,S8}.
	set := out.Copy.CopyingSet()
	wantPairs := [][2]dataset.SourceID{{2, 3}, {2, 4}, {3, 4}, {6, 7}, {6, 8}, {7, 8}}
	for _, w := range wantPairs {
		if !set[int64(w[0])<<32|int64(uint32(w[1]))] {
			t.Errorf("planted copying pair (S%d,S%d) not detected", w[0], w[1])
		}
	}
	// The honest sources must stay independent of each other.
	for _, w := range [][2]dataset.SourceID{{0, 1}, {0, 9}, {1, 9}} {
		if set[int64(w[0])<<32|int64(uint32(w[1]))] {
			t.Errorf("independent pair (S%d,S%d) wrongly flagged", w[0], w[1])
		}
	}

	// Accuracy separation (Table II converges to S0≈.99, S2≈.2).
	a := out.State.A
	for _, s := range []int{0, 1, 9} {
		if a[s] < 0.85 {
			t.Errorf("accuracy of honest S%d = %.3f, want high", s, a[s])
		}
	}
	for _, s := range []int{2, 3, 6, 8} {
		if a[s] > 0.6 {
			t.Errorf("accuracy of bad S%d = %.3f, want low", s, a[s])
		}
	}
	if a[0] <= a[2] {
		t.Errorf("accuracy ordering violated: A(S0)=%.3f ≤ A(S2)=%.3f", a[0], a[2])
	}
}

// TestDetectorsAgreeOnMotivating: the full iterative loop reaches the same
// copying set and truths regardless of which exact detector runs inside.
func TestDetectorsAgreeOnMotivating(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	base := (&TruthFinder{Params: p}).Run(ds, &core.Pairwise{Params: p})
	dets := []core.Detector{
		&core.Index{Params: p},
		&core.Hybrid{Params: p},
		&core.BoundPlus{Params: p},
		&core.Incremental{Params: p},
	}
	for _, det := range dets {
		out := (&TruthFinder{Params: p}).Run(ds, det)
		if d := testkit.Diff(out.Truth, base.Truth); d != "" {
			t.Errorf("%s: truth differs from PAIRWISE's: %s", det.Name(), d)
		}
		if d := testkit.Diff(out.Copy.CopyingSet(), base.Copy.CopyingSet()); d != "" {
			t.Errorf("%s: copying pairs differ from PAIRWISE's: %s", det.Name(), d)
		}
	}
}

// TestValueProbsDiscounting: a false value shared by a detected copier
// clique must lose probability once discounting is applied.
func TestValueProbsDiscounting(t *testing.T) {
	ds, accu := dataset.Motivating()
	p := exampleParams()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.A = accu
	st.P = ValueProbs(ds, st, p, nil)

	res := (&core.Pairwise{Params: p}).DetectRound(ds, st, 1)
	g := newCopyGraph(res)
	discounted := ValueProbs(ds, st, p, g)

	dNY, vNY := dataset.LookupValue(ds, "NY.NewYork")
	if dNY < 0 {
		t.Fatal("NY.NewYork missing")
	}
	if discounted[dNY][vNY] >= st.P[dNY][vNY] {
		t.Errorf("discounting did not reduce P(NY.NewYork): %.4f -> %.4f",
			st.P[dNY][vNY], discounted[dNY][vNY])
	}
	dAl, vAl := dataset.LookupValue(ds, "NY.Albany")
	if discounted[dAl][vAl] <= st.P[dAl][vAl] {
		t.Errorf("discounting should boost the competing true value: %.4f -> %.4f",
			st.P[dAl][vAl], discounted[dAl][vAl])
	}
}

// TestValueProbsNormalized: probabilities over each item's observed values
// stay within (0,1) and sum to at most 1 (the rest is the unobserved tail).
func TestValueProbsNormalized(t *testing.T) {
	ds, accu := dataset.Motivating()
	p := exampleParams()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.A = accu
	probs := ValueProbs(ds, st, p, nil)
	for d := range probs {
		sum := 0.0
		for _, pv := range probs[d] {
			if pv <= 0 || pv >= 1 {
				t.Fatalf("item %d has out-of-range probability %v", d, pv)
			}
			sum += pv
		}
		if sum > 1+1e-9 {
			t.Fatalf("item %d probabilities sum to %v > 1", d, sum)
		}
	}
}

func TestAccuraciesClamped(t *testing.T) {
	ds, _ := dataset.Motivating()
	probs := make([][]float64, ds.NumItems())
	for d := range probs {
		probs[d] = make([]float64, ds.NumValues(dataset.ItemID(d)))
		for v := range probs[d] {
			probs[d][v] = 1.0 // degenerate certainty
		}
	}
	acc := Accuracies(ds, probs)
	for s, a := range acc {
		if a != 0.99 {
			t.Errorf("source %d accuracy %v, want clamp at 0.99", s, a)
		}
	}
}

func TestDecidePicksArgmax(t *testing.T) {
	ds, _ := dataset.Motivating()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	for d := range st.P {
		for v := range st.P[d] {
			st.P[d][v] = 0.1
		}
		st.P[d][len(st.P[d])-1] = 0.9
	}
	truth := Decide(ds, st)
	for d := range truth {
		if int(truth[d]) != len(st.P[d])-1 {
			t.Errorf("item %d decided %d, want argmax %d", d, truth[d], len(st.P[d])-1)
		}
	}
}

// TestRunDeterministic: two runs produce identical outcomes.
func TestRunDeterministic(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	a := (&TruthFinder{Params: p}).Run(ds, &core.Hybrid{Params: p})
	b := (&TruthFinder{Params: p}).Run(ds, &core.Hybrid{Params: p})
	if d := testkit.Diff(b, a, "IndexBuild", "Detect", "FusionTime"); d != "" {
		t.Fatalf("second run differs: %s", d)
	}
}

// TestIncrementalResetBetweenRuns: reusing one Incremental detector for
// two different runs must not leak state (Run resets it).
func TestIncrementalResetBetweenRuns(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	det := &core.Incremental{Params: p}
	a := (&TruthFinder{Params: p}).Run(ds, det)
	b := (&TruthFinder{Params: p}).Run(ds, det)
	if d := testkit.Diff(b, a, "IndexBuild", "Detect", "FusionTime"); d != "" {
		t.Fatalf("second run with the same detector differs: %s", d)
	}
}

// TestReusedAcrossRuns: one TruthFinder and one Incremental detector kept
// for runs over datasets of other sizes and source counts, as the serving
// layer keeps its round scratch, give every run exactly the outcome of a
// fresh pair: Run starts both over and they carry only memory.
func TestReusedAcrossRuns(t *testing.T) {
	p := bayes.DefaultParams()
	opts := core.Options{Workers: 2}
	tf, det := &TruthFinder{Params: p, Workers: 2}, &core.Incremental{Params: p, Opts: opts}
	var sets []*dataset.Dataset
	for _, pr := range testkit.Lookup("book-cs", "stock-1day") {
		sets = append(sets, testkit.Generate(t, pr))
	}
	for i, ds := range append(sets, sets[0]) {
		want := (&TruthFinder{Params: p, Workers: 2}).Run(ds, &core.Incremental{Params: p, Opts: opts})
		if d := testkit.Diff(tf.Run(ds, det), want, "IndexBuild", "Detect", "FusionTime"); d != "" {
			t.Fatalf("run %d: the reused pair differs from a fresh one: %s", i+1, d)
		}
	}
}
