package index

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
)

func exampleParams() bayes.Params { return bayes.Params{Alpha: 0.1, S: 0.8, N: 50} }

// motivatingState builds the statistical state of the paper's Table III:
// source accuracies from Table I and the converged value probabilities.
func motivatingState(t testing.TB) (*dataset.Dataset, *bayes.State) {
	t.Helper()
	ds, accu := dataset.Motivating()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.A = accu
	// Unindexed (single-provider) values keep a neutral probability; they
	// never appear in shared-value contributions.
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

// scoredView builds the index of ds the way a detector does: the entry
// universe once, then one scored View.
func scoredView(ds *dataset.Dataset, st *bayes.State, ord Order, rng *rand.Rand) (*Structure, *View) {
	str := NewStructure(ds)
	v := NewView(str)
	v.Rescore(st, exampleParams(), ord, rng)
	return str, v
}

// checkMaxRemaining asserts MaxRemaining[i] is exactly the largest score
// at scan positions >= i, with the 0 sentinel at the end.
func checkMaxRemaining(t *testing.T, v *View) {
	t.Helper()
	n := len(v.Order)
	for i := range v.Order {
		maxAfter := 0.0
		for _, eid := range v.Order[i:] {
			maxAfter = math.Max(maxAfter, v.Score[eid])
		}
		if v.MaxRemaining[i] != maxAfter {
			t.Fatalf("MaxRemaining[%d] = %v, want %v", i, v.MaxRemaining[i], maxAfter)
		}
	}
	if v.MaxRemaining[n] != 0 {
		t.Fatalf("MaxRemaining sentinel must be 0")
	}
}

// TestBuildTableIII reproduces the inverted index of Table III: 13
// entries, their probabilities, scores, provider sets and the score order.
func TestBuildTableIII(t *testing.T) {
	ds, st := motivatingState(t)
	str, v := scoredView(ds, st, ByContribution, nil)
	if str.NumEntries() != 13 {
		t.Fatalf("index has %d entries, want 13", str.NumEntries())
	}

	want := []struct {
		label     string
		score     float64
		tol       float64
		providers []string
	}{
		{"AZ.Tempe", 4.59, 0.02, []string{"S5", "S6"}},
		{"NJ.Atlantic", 4.12, 0.02, []string{"S2", "S3", "S4"}},
		{"TX.Houston", 4.05, 0.02, []string{"S2", "S4"}},
		{"NY.NewYork", 4.05, 0.02, []string{"S2", "S3", "S4"}},
		{"TX.Dallas", 3.98, 0.02, []string{"S6", "S7", "S8"}},
		{"NY.Buffalo", 3.97, 0.02, []string{"S6", "S7", "S8"}},
		{"FL.PalmBay", 3.97, 0.02, []string{"S6", "S7", "S8"}},
		{"FL.Miami", 3.83, 0.02, []string{"S2", "S3"}},
		{"AZ.Phoenix", 1.62, 0.05, []string{"S0", "S1", "S2", "S3", "S4"}},
		{"NJ.Trenton", 1.51, 0.02, []string{"S0", "S1", "S7", "S8", "S9"}},
		{"FL.Orlando", 0.84, 0.02, []string{"S1", "S4", "S5", "S9"}},
		{"NY.Albany", 0.43, 0.02, []string{"S0", "S1", "S5"}},
		{"TX.Austin", 0.43, 0.02, []string{"S0", "S1", "S5", "S9"}},
	}
	byLabel := make(map[string]int32)
	for e := int32(0); int(e) < str.NumEntries(); e++ {
		d := str.Item[e]
		byLabel[ds.ItemNames[d]+"."+ds.ValueNames[d][str.Val[e]]] = e
	}
	for _, w := range want {
		e, ok := byLabel[w.label]
		if !ok {
			t.Errorf("entry %s missing", w.label)
			continue
		}
		if math.Abs(v.Score[e]-w.score) > w.tol {
			t.Errorf("%s score = %.3f, want %.2f", w.label, v.Score[e], w.score)
		}
		var provs []string
		for _, s := range str.Providers(e) {
			provs = append(provs, ds.SourceNames[s])
		}
		sort.Strings(provs)
		sort.Strings(w.providers)
		if len(provs) != len(w.providers) {
			t.Errorf("%s providers = %v, want %v", w.label, provs, w.providers)
			continue
		}
		for i := range provs {
			if provs[i] != w.providers[i] {
				t.Errorf("%s providers = %v, want %v", w.label, provs, w.providers)
				break
			}
		}
	}
	// Scores must be non-increasing under ByContribution.
	for i := 1; i < len(v.Order); i++ {
		if v.Score[v.Order[i]] > v.Score[v.Order[i-1]] {
			t.Fatalf("entries not sorted by score at %d", i)
		}
	}
	// No entry for single-provider values.
	for _, label := range []string{"NJ.Union", "AZ.Tucson", "TX.Arlington"} {
		if _, ok := byLabel[label]; ok {
			t.Errorf("single-provider value %s must not be indexed", label)
		}
	}
}

// TestTailSet reproduces Example 3.6: the last two entries (NY.Albany and
// TX.Austin, 0.43 each) form E̅ since 0.86 < ln(β/2α) = 1.39.
func TestTailSet(t *testing.T) {
	ds, st := motivatingState(t)
	_, v := scoredView(ds, st, ByContribution, nil)
	// Exactly the two lowest-score entries.
	for i, e := range v.Order {
		if want := i >= len(v.Order)-2; v.InTail[e] != want {
			t.Errorf("entry at scan position %d: InTail = %v, want %v", i, v.InTail[e], want)
		}
	}
	if v.TailScoreSum >= exampleParams().ThetaInd() {
		t.Errorf("tail score sum %.3f must stay below θind", v.TailScoreSum)
	}
}

// TestCandidatePairs reproduces Example 3.6's count: 26 source pairs occur
// together in entries outside E̅ (e.g. S0,S5 share only tail values and
// are skipped).
func TestCandidatePairs(t *testing.T) {
	ds, st := motivatingState(t)
	_, v := scoredView(ds, st, ByContribution, nil)
	pm := NewPairMap(ds.NumSources())
	CandidatePairsInto(v, pm, math.MaxInt)
	if pm.Len() != 26 {
		t.Fatalf("candidate pairs = %d, want 26 (Example 3.6)", pm.Len())
	}
	if slot := pm.Get(0, 5); slot != -1 {
		t.Error("pair (S0,S5) shares only tail values and must be pruned")
	}
	if slot := pm.Get(2, 3); slot < 0 {
		t.Error("pair (S2,S3) must be a candidate")
	}
}

// TestSharedItemCounts cross-checks the set-similarity-join counting
// against the merge-based dataset method.
func TestSharedItemCounts(t *testing.T) {
	ds, st := motivatingState(t)
	_, v := scoredView(ds, st, ByContribution, nil)
	pm := NewPairMap(ds.NumSources())
	CandidatePairsInto(v, pm, math.MaxInt)
	counts := SharedItemCounts(ds, pm)
	for slot, key := range pm.Keys() {
		s1, s2 := key.Sources()
		if want := ds.SharedItems(s1, s2); int(counts[slot]) != want {
			t.Errorf("l(S%d,S%d) = %d, want %d", s1, s2, counts[slot], want)
		}
	}
}

func TestMaxRemainingSound(t *testing.T) {
	ds, st := motivatingState(t)
	for _, ord := range []Order{ByContribution, ByProvider, Random} {
		_, v := scoredView(ds, st, ord, rand.New(rand.NewSource(7)))
		t.Run(ord.String(), func(t *testing.T) { checkMaxRemaining(t, v) })
	}
}

func TestOrderings(t *testing.T) {
	ds, st := motivatingState(t)
	str, byProv := scoredView(ds, st, ByProvider, nil)
	for i := 1; i < len(byProv.Order); i++ {
		if len(str.Providers(byProv.Order[i])) < len(str.Providers(byProv.Order[i-1])) {
			t.Fatalf("ByProvider not sorted at %d", i)
		}
	}
	_, r1 := scoredView(ds, st, Random, rand.New(rand.NewSource(1)))
	_, r2 := scoredView(ds, st, Random, rand.New(rand.NewSource(1)))
	if !slices.Equal(r1.Order, r2.Order) {
		t.Fatal("Random order must be deterministic under the same seed")
	}
	// The tail set is score-defined, identical across orders.
	_, byContrib := scoredView(ds, st, ByContribution, nil)
	if !slices.Equal(byProv.InTail, byContrib.InTail) || !slices.Equal(r1.InTail, byContrib.InTail) {
		t.Errorf("tail set differs across orders: %v %v %v", byContrib.InTail, byProv.InTail, r1.InTail)
	}
	if ByContribution.String() != "ByContribution" || ByProvider.String() != "ByProvider" || Random.String() != "Random" {
		t.Error("Order.String broken")
	}
}

// TestRescoreInPlace: INCREMENTAL (Section V) freezes the entry universe
// of its base round and only refreshes the per-round arrays; a second
// Rescore on the same View must refresh P, scores and the maxima and
// leave the Structure alone.
func TestRescoreInPlace(t *testing.T) {
	ds, st := motivatingState(t)
	str, v := scoredView(ds, st, ByContribution, nil)
	items, vals := slices.Clone(str.Item), slices.Clone(str.Val)

	st2 := st.Clone()
	for d := range st2.P {
		for v := range st2.P[d] {
			st2.P[d][v] = 0.5
		}
	}
	v.Rescore(st2, exampleParams(), ByContribution, nil)
	if !slices.Equal(str.Item, items) || !slices.Equal(str.Val, vals) {
		t.Fatal("Rescore must not renumber entries")
	}
	for e, p := range v.P {
		if p != 0.5 {
			t.Fatalf("Rescore must refresh P (entry %d has %v)", e, p)
		}
	}
	checkMaxRemaining(t, v)
}

func TestPairMapDenseAndSparse(t *testing.T) {
	for _, n := range []int{10, denseLimit + 1} {
		pm := NewPairMap(n)
		slot, added := pm.GetOrAdd(3, 1)
		if !added || slot != 0 {
			t.Fatalf("n=%d: first add gave slot %d added %v", n, slot, added)
		}
		if s, added := pm.GetOrAdd(1, 3); added || s != 0 {
			t.Fatalf("n=%d: unordered lookup broken", n)
		}
		if pm.Get(1, 3) != 0 || pm.Get(3, 1) != 0 {
			t.Fatalf("n=%d: Get broken", n)
		}
		if pm.Get(0, 2) != -1 {
			t.Fatalf("n=%d: absent pair should be -1", n)
		}
		a, b := pm.Key(0).Sources()
		if a != 1 || b != 3 {
			t.Fatalf("n=%d: Key unpack gave (%d,%d)", n, a, b)
		}
		if pm.Len() != 1 {
			t.Fatalf("n=%d: Len = %d", n, pm.Len())
		}
	}
}

func TestMakePairKeyOrderInvariant(t *testing.T) {
	if MakePairKey(7, 2) != MakePairKey(2, 7) {
		t.Error("MakePairKey must be order-invariant")
	}
	a, b := MakePairKey(7, 2).Sources()
	if a != 2 || b != 7 {
		t.Errorf("Sources gave (%d,%d), want (2,7)", a, b)
	}
}
