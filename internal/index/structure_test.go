package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
)

// randomIndexInstance builds a random dataset plus a valid state, local to
// this package (the core package has its own copy; duplicating ~30 lines
// beats an import cycle through a shared helper package).
func randomIndexInstance(rng *rand.Rand, ns, ni int) (*dataset.Dataset, *bayes.State) {
	b := dataset.NewBuilder()
	names := make([]string, ni)
	for d := 0; d < ni; d++ {
		names[d] = "D" + string(rune('A'+d%26)) + string(rune('a'+(d/26)%26))
		b.Item(names[d])
	}
	for s := 0; s < ns; s++ {
		src := "S" + string(rune('A'+s))
		b.Source(src)
		cov := 0.2 + 0.8*rng.Float64()
		for d := 0; d < ni; d++ {
			if rng.Float64() < cov {
				b.Add(src, names[d], "v"+string(rune('0'+rng.Intn(5))))
			}
		}
	}
	ds := b.Build()
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
	return ds, st
}

// TestViewMatchesBruteForce checks Structure and View, on random
// instances, against Definition 3.2 worked out from the Dataset alone:
// the entry universe, the scores, the scan order, the tail set E̅, the
// remaining-score maxima and the candidate pairs.
func TestViewMatchesBruteForce(t *testing.T) {
	p := exampleParams()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomIndexInstance(rng, 4+rng.Intn(8), 10+rng.Intn(40))
		str := NewStructure(ds)

		// Entry universe: every value with >= 2 providers, item-major,
		// values ascending, providers sorted by source id.
		e := int32(0)
		for d := 0; d < ds.NumItems(); d++ {
			for val := 0; val < ds.NumValues(dataset.ItemID(d)); val++ {
				var provs []dataset.SourceID
				for src := 0; src < ds.NumSources(); src++ {
					if ds.ValueOf(dataset.SourceID(src), dataset.ItemID(d)) == dataset.ValueID(val) {
						provs = append(provs, dataset.SourceID(src))
					}
				}
				if len(provs) < 2 {
					continue
				}
				if int(e) >= str.NumEntries() || int(str.Item[e]) != d || int(str.Val[e]) != val ||
					!slices.Equal(str.Providers(e), provs) {
					t.Fatalf("seed %d: entry %d is not (item %d, value %d, providers %v)", seed, e, d, val, provs)
				}
				e++
			}
		}
		if int(e) != str.NumEntries() {
			t.Fatalf("seed %d: %d entries, want %d", seed, str.NumEntries(), e)
		}

		for _, ord := range []Order{ByContribution, ByProvider} {
			v := NewView(str)
			v.Rescore(st, p, ord, nil)
			for e := int32(0); int(e) < str.NumEntries(); e++ {
				var accs []float64
				for _, src := range str.Providers(e) {
					accs = append(accs, st.A[src])
				}
				if want := p.MaxEntryScore(st.P[str.Item[e]][str.Val[e]], accs); v.Score[e] != want {
					t.Fatalf("seed %d %v: Score[%d] = %v, want %v", seed, ord, e, v.Score[e], want)
				}
			}

			// Scan order: a permutation, sorted by the ordering's key,
			// ties in entry-id order (the sort is stable).
			key := func(e int32) float64 {
				if ord == ByProvider {
					return float64(len(str.Providers(e)))
				}
				return -v.Score[e]
			}
			seen := make([]bool, str.NumEntries())
			for i, e := range v.Order {
				if seen[e] {
					t.Fatalf("seed %d %v: entry %d scanned twice", seed, ord, e)
				}
				seen[e] = true
				if i == 0 {
					continue
				}
				prev := v.Order[i-1]
				if key(prev) > key(e) || (key(prev) == key(e) && prev > e) {
					t.Fatalf("seed %d %v: positions %d,%d out of order", seed, ord, i-1, i)
				}
			}
			checkMaxRemaining(t, v)

			// Tail set: the lowest scores, summing to TailScoreSum < θind,
			// and maximal — one more entry would reach θind.
			var tail []float64
			lowestKept := math.Inf(1)
			for e, in := range v.InTail {
				if in {
					tail = append(tail, v.Score[e])
				} else {
					lowestKept = math.Min(lowestKept, v.Score[e])
				}
			}
			slices.Sort(tail)
			sum := 0.0
			for _, sc := range tail {
				sum += sc
			}
			if sum != v.TailScoreSum || sum >= p.ThetaInd() {
				t.Fatalf("seed %d %v: tail sums to %v, TailScoreSum %v, θind %v", seed, ord, sum, v.TailScoreSum, p.ThetaInd())
			}
			if len(tail) > 0 && tail[len(tail)-1] > lowestKept {
				t.Fatalf("seed %d %v: tail entry scores above a kept entry", seed, ord)
			}
			if len(tail) < str.NumEntries() && sum+lowestKept < p.ThetaInd() {
				t.Fatalf("seed %d %v: tail not maximal (%v + %v < θind)", seed, ord, sum, lowestKept)
			}

			// Candidate pairs: exactly the pairs co-occurring outside E̅;
			// the universe: every co-occurring pair.
			want := make(map[PairKey]bool)
			wantAll := make(map[PairKey]bool)
			for e := int32(0); int(e) < str.NumEntries(); e++ {
				provs := str.Providers(e)
				for x := 0; x < len(provs); x++ {
					for y := x + 1; y < len(provs); y++ {
						wantAll[MakePairKey(provs[x], provs[y])] = true
						if !v.InTail[e] {
							want[MakePairKey(provs[x], provs[y])] = true
						}
					}
				}
			}
			full := NewPairMap(ds.NumSources())
			CandidatePairsInto(v, full, math.MaxInt)
			all := NewPairMap(ds.NumSources())
			PairUniverseInto(v, full, all)
			if all.Len() != len(wantAll) {
				t.Fatalf("seed %d %v: %d pairs in the universe, want %d", seed, ord, all.Len(), len(wantAll))
			}
			for _, k := range all.Keys() {
				if !wantAll[k] {
					t.Fatalf("seed %d %v: pair %v in the universe shares no value", seed, ord, k)
				}
			}
			pm := NewPairMap(ds.NumSources())
			CandidatePairsInto(v, pm, all.Len())
			if pm.Len() != len(want) {
				t.Fatalf("seed %d %v: %d candidate pairs, want %d", seed, ord, pm.Len(), len(want))
			}
			for _, k := range pm.Keys() {
				if !want[k] {
					t.Fatalf("seed %d %v: pair %v shares no value outside the tail", seed, ord, k)
				}
			}
			// Stopping at the all-pairs count hands out the same slots as
			// the full walk.
			if !slices.Equal(pm.Keys(), full.Keys()) {
				t.Fatalf("seed %d %v: limited walk changed the slot order", seed, ord)
			}
		}
	}
}

// TestViewRescoreReusesBuffers: a second Rescore must not grow any slice —
// the steady-state rounds of the iterative process rely on it.
func TestViewRescoreReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, st := randomIndexInstance(rng, 6, 30)
	p := exampleParams()
	str := NewStructure(ds)
	v := NewView(str)
	v.Rescore(st, p, ByContribution, nil)
	if n := testing.AllocsPerRun(10, func() {
		v.Rescore(st, p, ByContribution, nil)
	}); n > 0 {
		t.Errorf("Rescore allocated %v times per run, want 0", n)
	}
}

// TestSharedItemCountsBitsMatchesMerge: the bitset popcount path must
// produce exactly the sorted-merge shared-item counts for every pair of
// the universe.
func TestSharedItemCountsBitsMatchesMerge(t *testing.T) {
	p := exampleParams()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomIndexInstance(rng, 4+rng.Intn(10), 10+rng.Intn(60))
		str := NewStructure(ds)
		if str.ItemBits == nil {
			t.Fatal("bitsets unexpectedly disabled on a small dataset")
		}
		v := NewView(str)
		v.Rescore(st, p, ByContribution, nil)
		cand := NewPairMap(ds.NumSources())
		CandidatePairsInto(v, cand, math.MaxInt)
		pm := NewPairMap(ds.NumSources())
		PairUniverseInto(v, cand, pm)
		got := make([]int32, pm.Len())
		SharedItemCountsBits(str, pm, got)
		want := SharedItemCounts(ds, pm)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: bitset counts %v != merge counts %v", seed, got, want)
		}
	}
}
