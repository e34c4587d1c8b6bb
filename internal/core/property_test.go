package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/testkit"
)

// randomInstance builds a random dataset plus a random-but-valid
// statistical state for property tests.
func randomInstance(rng *rand.Rand, ns, ni int) (*dataset.Dataset, *bayes.State) {
	b := dataset.NewBuilder()
	itemNames := make([]string, ni)
	for d := 0; d < ni; d++ {
		itemNames[d] = "D" + itoa(d)
		b.Item(itemNames[d])
	}
	for s := 0; s < ns; s++ {
		name := "S" + itoa(s)
		b.Source(name)
		cov := 0.2 + 0.8*rng.Float64()
		for d := 0; d < ni; d++ {
			if rng.Float64() < cov {
				b.Add(name, itemNames[d], "v"+itoa(rng.Intn(4)))
			}
		}
	}
	ds := b.Build()
	return ds, randomState(rng, ds)
}

// randomState draws a random-but-valid statistical state for ds.
func randomState(rng *rand.Rand, ds *dataset.Dataset) *bayes.State {
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	for s := range st.A {
		st.A[s] = 0.05 + 0.9*rng.Float64()
	}
	for d := range st.P {
		for v := range st.P[d] {
			st.P[d][v] = 0.01 + 0.98*rng.Float64()
		}
	}
	return st
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestPropertyIndexEqualsPairwise is Proposition 3.5 as a property test:
// INDEX obtains the same binary results as PAIRWISE on arbitrary data.
func TestPropertyIndexEqualsPairwise(t *testing.T) {
	p := bayes.DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 4+rng.Intn(10), 8+rng.Intn(40))
		ires := (&Index{Params: p}).DetectRound(ds, st, 1)
		pres := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
		return testkit.Diff(ires.CopyingSet(), pres.CopyingSet()) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIndexScoresExact: for every pair INDEX instantiates, its
// scores equal PAIRWISE's exactly (the index never loses evidence).
func TestPropertyIndexScoresExact(t *testing.T) {
	p := bayes.DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 4+rng.Intn(8), 8+rng.Intn(30))
		ires := (&Index{Params: p}).DetectRound(ds, st, 1)
		pres := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
		pmap := make(map[int64]PairResult, len(pres.Pairs))
		for _, pr := range pres.Pairs {
			pmap[int64(pr.S1)<<32|int64(uint32(pr.S2))] = pr
		}
		for _, ip := range ires.Pairs {
			pp, ok := pmap[int64(ip.S1)<<32|int64(uint32(ip.S2))]
			if !ok {
				return false
			}
			if abs(ip.CTo-pp.CTo) > 1e-9 || abs(ip.CFrom-pp.CFrom) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestPropertyBoundSoundness: BOUND's early decisions must agree with the
// exact INDEX decisions whenever the h estimate is exact or conservative.
// BOUND is allowed to differ slightly (the paper observes it "rarely"
// does), so this asserts a high agreement rate rather than equality, and
// additionally asserts that copying decisions driven by Cmin — which is
// always sound — never contradict INDEX.
func TestPropertyBoundSoundness(t *testing.T) {
	p := bayes.DefaultParams()
	disagreements, totalPairs := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 4+rng.Intn(10), 10+rng.Intn(50))
		bres := (&Bound{Params: p}).DetectRound(ds, st, 1)
		ires := (&Index{Params: p}).DetectRound(ds, st, 1)
		iset := ires.CopyingSet()
		for _, pr := range bres.Pairs {
			totalPairs++
			k := int64(pr.S1)<<32 | int64(uint32(pr.S2))
			if pr.Copying != iset[k] {
				disagreements++
				// A copying conclusion from Cmin ≥ θcp is provably sound:
				// Cmin lower-bounds the exact score.
				if pr.Copying && !iset[k] {
					t.Fatalf("seed %d: BOUND concluded copying for (S%d,S%d) but exact scores disagree — Cmin is unsound",
						seed, pr.S1, pr.S2)
				}
			}
		}
	}
	if totalPairs == 0 {
		t.Fatal("property test generated no pairs")
	}
	if rate := float64(disagreements) / float64(totalPairs); rate > 0.02 {
		t.Errorf("BOUND disagreed with INDEX on %.2f%% of pairs (>2%%)", rate*100)
	}
}

// TestPropertyHybridMatchesComponents: HYBRID's decisions coincide with
// BOUND+'s for large-overlap pairs and INDEX's for small-overlap pairs.
func TestPropertyHybridMatchesComponents(t *testing.T) {
	p := bayes.DefaultParams()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 6, 60)
		h := (&Hybrid{Params: p}).DetectRound(ds, st, 1)
		bp := (&BoundPlus{Params: p}).DetectRound(ds, st, 1)
		i := (&Index{Params: p}).DetectRound(ds, st, 1)
		iset := i.CopyingSet()
		bpset := bp.CopyingSet()
		for _, pr := range h.Pairs {
			k := int64(pr.S1)<<32 | int64(uint32(pr.S2))
			l := ds.SharedItems(pr.S1, pr.S2)
			if l <= 16 {
				if pr.Copying != iset[k] {
					t.Errorf("seed %d: HYBRID small-overlap pair (S%d,S%d) differs from INDEX", seed, pr.S1, pr.S2)
				}
			} else if pr.Copying != bpset[k] {
				t.Errorf("seed %d: HYBRID large-overlap pair (S%d,S%d) differs from BOUND+", seed, pr.S1, pr.S2)
			}
		}
	}
}

// TestPropertyParallelIndexDeterministic: any worker count produces the
// sequential result.
func TestPropertyParallelIndexDeterministic(t *testing.T) {
	p := bayes.DefaultParams()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 8, 40)
		seq := (&Index{Params: p}).DetectRound(ds, st, 1)
		for _, w := range []int{2, 3, 4} {
			par := (&Index{Params: p, Opts: Options{Workers: w}}).DetectRound(ds, st, 1)
			if d := testkit.Diff(par, seq, "IndexBuild", "Detect"); d != "" {
				t.Fatalf("seed %d workers %d: %s", seed, w, d)
			}
		}
	}
}

// TestPropertyParallelPairwiseDeterministic: sharded PAIRWISE matches the
// sequential baseline.
func TestPropertyParallelPairwiseDeterministic(t *testing.T) {
	p := bayes.DefaultParams()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 9, 30)
		seq := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
		par := (&Pairwise{Params: p, Workers: 4}).DetectRound(ds, st, 1)
		if d := testkit.Diff(par, seq, "IndexBuild", "Detect"); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestEmptyAndDegenerateDatasets: detectors must not panic on datasets
// with no shared values, single sources with observations, or empty items.
func TestEmptyAndDegenerateDatasets(t *testing.T) {
	p := bayes.DefaultParams()
	b := dataset.NewBuilder()
	b.Add("S0", "D0", "x")
	b.Add("S1", "D1", "y")
	ds := b.Build()
	st := bayes.NewState([]int{1, 1}, 2, 0.8)
	for _, det := range []Detector{
		&Pairwise{Params: p},
		&Index{Params: p},
		&Bound{Params: p},
		&BoundPlus{Params: p},
		&Hybrid{Params: p},
	} {
		res := det.DetectRound(ds, st, 1)
		if len(res.CopyingPairs()) != 0 {
			t.Errorf("%s found copying with zero shared items", det.Name())
		}
	}
}

type baseEntry struct {
	cTo, cFrom float64
	copying    bool
}

// frozenBase returns a prepared detector's base — exact scores and
// decision per candidate pair — keyed by packed pair id.
func frozenBase(d *Incremental) map[int64]baseEntry {
	base := make(map[int64]baseEntry, d.pm.Len())
	for slot, key := range d.pm.Keys() {
		s1, s2 := key.Sources()
		base[int64(s1)<<32|int64(uint32(s2))] = baseEntry{d.cTo[slot], d.cFrom[slot], d.copying[slot]}
	}
	return base
}

// near reports |a-b| <= 1e-9, treating two +Inf ("sharing is proof")
// scores as equal.
func near(a, b float64) bool { return a == b || abs(a-b) <= 1e-9 }

// TestPropertyFreezeBaseExact: the base INCREMENTAL freezes out of its
// last warm scan — which decides pairs early like HYBRID and keeps
// accumulating past the decision point — holds PAIRWISE's exact scores for
// every candidate pair, for every worker count; and the two paths that
// freeze without a warm scan (skipped warm rounds, rebase) arrive at the
// same base and decisions. Variants: plain; a source with accuracy 1
// sharing a value of probability 0, whose pairs see ind <= 0 and carry a
// +Inf mantissa from then on.
func TestPropertyFreezeBaseExact(t *testing.T) {
	sawEarly := false
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 5+rng.Intn(8), 30+rng.Intn(60))
		p := bayes.DefaultParams()
		if seed%3 == 1 {
			st.A[0] = 1
			for _, o := range ds.BySource[0] {
				st.P[o.Item][o.Value] = 0
			}
		}
		pres := (&Pairwise{Params: p}).DetectRound(ds, st, 1)
		exact := make(map[int64]PairResult, len(pres.Pairs))
		for _, pr := range pres.Pairs {
			exact[int64(pr.S1)<<32|int64(uint32(pr.S2))] = pr
		}
		sawInf := false
		for _, workers := range []int{1, 2, 4, 7} {
			d := &Incremental{Params: p, Opts: Options{Workers: workers}}
			d.DetectRound(ds, st, 1)
			r2 := d.DetectRound(ds, st, 2)
			fused := frozenBase(d)
			if len(fused) == 0 {
				t.Fatalf("seed %d: no candidate pairs", seed)
			}
			for k, b := range fused {
				want, ok := exact[k]
				if !ok || !near(b.cTo, want.CTo) || !near(b.cFrom, want.CFrom) {
					t.Fatalf("seed %d workers %d pair %x: base (%v, %v), PAIRWISE (%v, %v)",
						seed, workers, k, b.cTo, b.cFrom, want.CTo, want.CFrom)
				}
				sawInf = sawInf || math.IsInf(b.cTo, 1)
			}
			// The scan really did stop deciding early: some reported
			// round-2 score is a decision-point score, not the exact one.
			for _, pr := range r2.Pairs {
				if b := fused[int64(pr.S1)<<32|int64(uint32(pr.S2))]; !near(pr.CTo, b.cTo) {
					sawEarly = true
				}
			}

			skipped := &Incremental{Params: p, Opts: Options{Workers: workers}}
			skipped.DetectRound(ds, st, warmRounds+1)
			var stats Stats
			d.rescan(ds, st, &stats) // what a rebase does
			for name, other := range map[string]map[int64]baseEntry{"skipped": frozenBase(skipped), "rebase": frozenBase(d)} {
				if len(other) != len(fused) {
					t.Fatalf("seed %d workers %d: %s path froze %d pairs, fused %d", seed, workers, name, len(other), len(fused))
				}
				for k, b := range fused {
					o := other[k]
					if !near(o.cTo, b.cTo) || !near(o.cFrom, b.cFrom) || o.copying != b.copying {
						t.Fatalf("seed %d workers %d pair %x: %s path %+v, fused %+v", seed, workers, k, name, o, b)
					}
				}
			}
		}
		if seed%3 == 1 && !sawInf {
			t.Fatalf("seed %d: degenerate variant produced no +Inf base score", seed)
		}
	}
	if !sawEarly {
		t.Fatal("no instance decided a pair early: the post-decision accumulation went untested")
	}
}

// TestSparsePairMapKernel drives the kernel's other pair lookup: past
// 4 096 sources the pair map is a hash, PairMap.Row returns nil and every
// co-occurrence goes through Get. 2 048 disjoint pairs of sources share a
// few items of their own each — every eighth pair more than HYBRID's share
// threshold — agreeing on two in three. INDEX and HYBRID must give the same
// Result for one worker and two, agree with each other (exactly, on the
// pairs HYBRID treats INDEX-style), and match PAIRWISE's merge of the two
// observation lists on every pair they instantiate.
func TestSparsePairMapKernel(t *testing.T) {
	const numPairs = 2048
	const ns = 2*numPairs + 1 // index.denseLimit + 1
	if index.NewPairMap(ns).Row(0) != nil {
		t.Fatalf("the pair map of %d sources is dense; the test lost its point", ns)
	}
	b := dataset.NewBuilder()
	for i := 0; i < numPairs; i++ {
		s1, s2 := "S"+itoa(2*i), "S"+itoa(2*i+1)
		k := 1 + i%4
		if i%8 == 0 {
			k = 20
		}
		for j := 0; j < k; j++ {
			item := "D" + itoa(i) + "." + itoa(j)
			b.Add(s1, item, "x")
			if (i+j)%3 == 0 {
				b.Add(s2, item, "y")
			} else {
				b.Add(s2, item, "x")
			}
		}
	}
	b.Add("S"+itoa(ns-1), "alone", "x")
	ds := b.Build()
	if ds.NumSources() != ns {
		t.Fatalf("%d sources, want %d", ds.NumSources(), ns)
	}
	st := randomState(rand.New(rand.NewSource(22)), ds)

	p := bayes.DefaultParams()
	same := func(name string, want, got *Result) {
		t.Helper()
		if !slices.Equal(got.Pairs, want.Pairs) {
			t.Fatalf("%s: the %d pairs differ from one worker's %d", name, len(got.Pairs), len(want.Pairs))
		}
		g, w := got.Stats, want.Stats
		g.IndexBuild, g.Detect, w.IndexBuild, w.Detect = 0, 0, 0, 0
		if g != w {
			t.Fatalf("%s: stats %+v, want %+v", name, g, w)
		}
	}
	ires := (&Index{Params: p}).DetectRound(ds, st, 1)
	same("INDEX workers=2", ires, (&Index{Params: p, Opts: Options{Workers: 2}}).DetectRound(ds, st, 1))
	hres := (&Hybrid{Params: p}).DetectRound(ds, st, 1)
	same("HYBRID workers=2", hres, (&Hybrid{Params: p, Opts: Options{Workers: 2}}).DetectRound(ds, st, 1))
	// The pair sweep never looks a pair up; it must agree with the walk's
	// hash lookups all the same.
	assertNestsAgree(t, ds, st, p)

	if len(ires.Pairs) < numPairs/2 || len(hres.Pairs) != len(ires.Pairs) {
		t.Fatalf("INDEX instantiated %d pairs and HYBRID %d, want the same and at least %d", len(ires.Pairs), len(hres.Pairs), numPairs/2)
	}
	pw := &Pairwise{Params: p}
	bounded, copying := 0, 0
	for i, ip := range ires.Pairs {
		hp := hres.Pairs[i]
		if l := ds.SharedItems(ip.S1, ip.S2); l > 16 {
			bounded++
			if hp.S1 != ip.S1 || hp.S2 != ip.S2 || hp.Copying != ip.Copying {
				t.Errorf("bounded pair (S%d,S%d): HYBRID decides %v, INDEX %v", ip.S1, ip.S2, hp.Copying, ip.Copying)
			}
		} else if hp != ip {
			t.Errorf("pair (S%d,S%d) sharing %d items: HYBRID %+v, INDEX %+v", ip.S1, ip.S2, l, hp, ip)
		}
		var ref Result
		pw.detectPair(ds, st, ip.S1, ip.S2, &ref)
		if len(ref.Pairs) != 1 || !near(ip.CTo, ref.Pairs[0].CTo) || !near(ip.CFrom, ref.Pairs[0].CFrom) ||
			ip.Copying != ref.Pairs[0].Copying {
			t.Errorf("pair (S%d,S%d): INDEX %+v, PAIRWISE %+v", ip.S1, ip.S2, ip, ref.Pairs)
		}
		if ip.Copying {
			copying++
		}
	}
	t.Logf("%d candidate pairs, %d bounded, %d copying", len(ires.Pairs), bounded, copying)
	if bounded == 0 || copying == 0 || copying == len(ires.Pairs) {
		t.Errorf("%d bounded and %d copying pairs of %d; the test lost its point", bounded, copying, len(ires.Pairs))
	}
}
