package core

import (
	"math/rand"
	"testing"

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
