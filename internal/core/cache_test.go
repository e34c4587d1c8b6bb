package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/index"
)

// TestStructCacheGenerationChange: deleting a dataset and creating a new
// one can hand the new dataset the old one's address, so a pointer-keyed
// cache would serve the stale frozen structure. The Generation stamp must
// catch the swap. (Regression: the cache used to key on the pointer only.)
func TestStructCacheGenerationChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds1, _ := randomInstance(rng, 5, 30)
	ds2, _ := randomInstance(rng, 8, 50)
	if ds1.Generation == ds2.Generation {
		t.Fatal("two Build calls produced the same generation stamp")
	}

	var c structCache
	s1 := c.structures(ds1)
	if got := c.structures(ds1); got != s1 {
		t.Fatal("unchanged dataset must hit the cache")
	}

	// Simulate the allocator reusing ds1's address for a new dataset.
	*ds1 = *ds2
	s2 := c.structures(ds1)
	if s2 == s1 {
		t.Fatal("generation change did not invalidate the cached structure")
	}
	if want := index.NewStructure(ds2).NumEntries(); s2.NumEntries() != want {
		t.Fatalf("rebuilt structure has %d entries, want %d", s2.NumEntries(), want)
	}
}

// TestIncrementalGenerationChangeReprepares: a prepared INCREMENTAL
// detector fed a recreated dataset at the same address must drop its
// frozen index and produce decisions exact for the new data.
func TestIncrementalGenerationChangeReprepares(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds1, st1 := randomInstance(rng, 6, 40)
	ds2, st2 := randomInstance(rng, 6, 40)
	p := exampleParams()

	inc := &Incremental{Params: p}
	inc.DetectRound(ds1, st1, 1)
	inc.DetectRound(ds1, st1, 2)
	inc.DetectRound(ds1, st1, 3)
	if !inc.prepared {
		t.Fatal("detector should be prepared after the warm rounds")
	}

	*ds1 = *ds2 // address reuse: same pointer, different dataset
	res := inc.DetectRound(ds1, st2, 4)
	idx := (&Index{Params: p}).DetectRound(ds1, st2, 1)
	assertSameDecisions(t, res, idx, "INCREMENTAL after dataset swap vs INDEX")
}

// sharedItems is l(S1,S2) off the item bitsets — the number the detector
// holds per pair slot (Incremental.l) and hands to exactPairBits.
func sharedItems(str *index.Structure, s1, s2 int) int {
	n := 0
	for wi, w := range str.ItemBits[s1] {
		n += bits.OnesCount64(w & str.ItemBits[s2][wi])
	}
	return n
}

// TestExactPairBitsMatchesMerge: INCREMENTAL's two exact-recomputation
// paths — the bitset AND sweep and the sorted-list merge — must agree
// bit for bit (scores AND stats counters), for every candidate pair. Both
// visit the same co-occurrences in item-major order and feed the same
// product accumulator, so this is equality, not tolerance.
func TestExactPairBitsMatchesMerge(t *testing.T) {
	p := exampleParams()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomInstance(rng, 5+rng.Intn(6), 10+rng.Intn(50))
		str := index.NewStructure(ds)
		if str.EntryBits == nil {
			t.Fatal("bitsets unexpectedly disabled on a small dataset")
		}
		ns := ds.NumSources()
		for s1 := 0; s1 < ns; s1++ {
			for s2 := s1 + 1; s2 < ns; s2++ {
				var stb, stm Stats
				bTo, bFrom := exactPairBits(p, str, ds, st,
					dataset.SourceID(s1), dataset.SourceID(s2), sharedItems(str, s1, s2), &stb)
				mTo, mFrom := exactPairMerge(p, ds, st,
					dataset.SourceID(s1), dataset.SourceID(s2), &stm)
				if bTo != mTo || bFrom != mFrom {
					t.Fatalf("seed %d pair (%d,%d): bits (%v,%v) != merge (%v,%v)",
						seed, s1, s2, bTo, bFrom, mTo, mFrom)
				}
				if stb != stm {
					t.Fatalf("seed %d pair (%d,%d): stats %+v != %+v", seed, s1, s2, stb, stm)
				}
			}
		}
	}
}

// TestExactPairBitsMatchesMergeCoverage: same differential with the
// footnote-1 coverage extension switched on.
func TestExactPairBitsMatchesMergeCoverage(t *testing.T) {
	p := exampleParams()
	p.CoverageWeight = 0.5
	rng := rand.New(rand.NewSource(3))
	ds, st := randomInstance(rng, 8, 40)
	str := index.NewStructure(ds)
	for s1 := 0; s1 < ds.NumSources(); s1++ {
		for s2 := s1 + 1; s2 < ds.NumSources(); s2++ {
			var stb, stm Stats
			bTo, bFrom := exactPairBits(p, str, ds, st, dataset.SourceID(s1), dataset.SourceID(s2), sharedItems(str, s1, s2), &stb)
			mTo, mFrom := exactPairMerge(p, ds, st, dataset.SourceID(s1), dataset.SourceID(s2), &stm)
			if bTo != mTo || bFrom != mFrom {
				t.Fatalf("pair (%d,%d): bits (%v,%v) != merge (%v,%v)", s1, s2, bTo, bFrom, mTo, mFrom)
			}
		}
	}
}
