package core

import (
	"math/rand"
	"testing"

	"copydetect/internal/index"
)

// TestStructCacheGenerationChange: the cache keys on the dataset pointer it
// holds. The same pointer hits the cache; a different dataset, even one
// with the same content, rebuilds the structure from that dataset.
func TestStructCacheGenerationChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds1, _ := randomInstance(rng, 5, 30)
	ds2, _ := randomInstance(rng, 8, 50)

	var c structCache
	s1 := c.structures(ds1)
	if got := c.structures(ds1); got != s1 {
		t.Fatal("unchanged dataset must hit the cache")
	}

	s2 := c.structures(ds2)
	if s2 == s1 || c.ds != ds2 {
		t.Fatal("a different dataset did not invalidate the cached structure")
	}
	if want := index.NewStructure(ds2).NumEntries(); s2.NumEntries() != want {
		t.Fatalf("rebuilt structure has %d entries, want %d", s2.NumEntries(), want)
	}
	if got := c.structures(ds2); got != s2 {
		t.Fatal("the new dataset must hit the cache once built")
	}

	twin := *ds1 // same content, different pointer
	if got := c.structures(&twin); got == s2 || c.ds != &twin {
		t.Fatal("a different pointer must rebuild, whatever its content")
	}
}

// TestIncrementalGenerationChangeReprepares: a prepared INCREMENTAL
// detector keeps its frozen index while it sees the same dataset pointer,
// and fed a different dataset drops that index, re-prepares on the new
// data and produces decisions exact for it.
func TestIncrementalGenerationChangeReprepares(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds1, st1 := randomInstance(rng, 6, 40)
	ds2, st2 := randomInstance(rng, 6, 40)
	p := exampleParams()

	inc := &Incremental{Params: p}
	inc.DetectRound(ds1, st1, 1)
	inc.DetectRound(ds1, st1, 2)
	if !inc.prepared {
		t.Fatal("detector should be prepared after the warm rounds")
	}
	frozen := inc.cache.str
	inc.DetectRound(ds1, st1, 3)
	if inc.cache.str != frozen || len(inc.History) != 1 {
		t.Fatal("the same dataset must keep the frozen index and run an incremental round")
	}

	res := inc.DetectRound(ds2, st2, 4)
	if !inc.prepared || inc.cache.ds != ds2 || inc.cache.str == frozen {
		t.Fatal("a different dataset must re-prepare the detector on it")
	}
	idx := (&Index{Params: p}).DetectRound(ds2, st2, 1)
	assertSameDecisions(t, res, idx, "INCREMENTAL after dataset change vs INDEX")
}
