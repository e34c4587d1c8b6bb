package core

import (
	"math/rand"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
)

// structCache memoizes everything the scan can reuse across rounds of the
// iterative process, split along the Structure/View boundary of
// internal/index:
//
//   - Per dataset generation: the SoA index structure (entry tables, CSR
//     provider lists, overlap bitsets), the all-pairs map and the
//     shared-item counts l(S1,S2). These depend only on the observations —
//     never on value probabilities or accuracies — so they are computed
//     once and reused in every round. (The paper counts l(S1,S2) "at index
//     building time"; this keeps that cost out of the per-round loop
//     entirely.) The all-pairs map costs no walk of its own: the first
//     round's candidate pairs plus the pairs of its tail entries are every
//     co-occurring pair.
//   - Per round, reusing buffers: the rescored View, the candidate pair
//     map (pairs co-occurring outside the round's tail set E̅, which moves
//     with the scores), its shared-item counts, the pair-state tables (one
//     per shard) and what the round's loop nest reads beside them — the
//     entry walk's per-worker nSeen scratch or the pair sweep's position
//     index. After the first round of a dataset, none of these allocate.
//
// The cache key is the dataset pointer AND its Generation stamp: a caller
// that deletes a dataset and creates a new one can legitimately see the
// allocator reuse the address, and a pointer-only key would then serve the
// old dataset's frozen structure for the new data. (Regression test:
// TestStructCacheGenerationChange.)
type structCache struct {
	ds  *dataset.Dataset
	gen uint64

	// Per dataset generation.
	str   *index.Structure
	view  *index.View
	pmAll *index.PairMap
	lAll  []int32

	// Per round, reused.
	pm      *index.PairMap
	lCounts []int32
	tabs    []pairTab
	nSeen   [][]int32 // entry walk: one counter slice per worker
	pos     posIndex  // pair sweep: the round's position index
}

// structures returns the SoA structure for ds, rebuilding everything when
// the dataset identity (pointer or generation) changed. The all-pairs map
// and its counts wait for the generation's first round (pairUniverse).
func (c *structCache) structures(ds *dataset.Dataset) *index.Structure {
	if c.str != nil && c.ds == ds && c.gen == ds.Generation {
		return c.str
	}
	*c = structCache{ds: ds, gen: ds.Generation}
	c.str = index.NewStructure(ds)
	c.view = index.NewView(c.str)
	return c.str
}

// pairUniverse fills the generation's all-pairs map from the view and the
// candidate pairs of its first round, and counts l(S1,S2) for every pair
// in it, off the bitsets or, when the memory guard disabled them, by the
// sorted-list merges (a one-time cost either way: it is cached).
func (c *structCache) pairUniverse(ds *dataset.Dataset) {
	c.pmAll = index.NewPairMap(ds.NumSources())
	index.PairUniverseInto(c.view, c.pm, c.pmAll)
	if c.str.ItemBits != nil {
		c.lAll = make([]int32, c.pmAll.Len())
		index.SharedItemCountsBits(c.str, c.pmAll, c.lAll)
	} else {
		c.lAll = index.SharedItemCounts(ds, c.pmAll)
	}
}

// round prepares one scan round: rescore the view against the current
// state, collect the candidate pairs outside the new tail set (stopping as
// soon as all of pmAll's are found; the generation's first round, which
// has no pmAll yet, builds it from what its walk found), and look up
// their shared-item counts from the cached all-pairs table.
func (c *structCache) round(ds *dataset.Dataset, st *bayes.State, p bayes.Params,
	ord index.Order, rng *rand.Rand) (*index.View, *index.PairMap, []int32) {

	c.structures(ds)
	c.view.Rescore(st, p, ord, rng)
	if c.pm == nil {
		c.pm = index.NewPairMap(ds.NumSources())
	}
	if c.pmAll == nil {
		// No count to stop at yet but the n(n−1)/2 pairs there can be.
		ns := ds.NumSources()
		index.CandidatePairsInto(c.view, c.pm, ns*(ns-1)/2)
		c.pairUniverse(ds)
	} else {
		index.CandidatePairsInto(c.view, c.pm, c.pmAll.Len())
	}
	numPairs := c.pm.Len()
	if cap(c.lCounts) < numPairs {
		c.lCounts = make([]int32, numPairs)
	}
	c.lCounts = c.lCounts[:numPairs]
	for slot, key := range c.pm.Keys() {
		// A candidate pair co-occurs in a non-tail entry, hence in an
		// entry, hence has a slot in pmAll.
		s1, s2 := key.Sources()
		c.lCounts[slot] = c.lAll[c.pmAll.Get(s1, s2)]
	}
	return c.view, c.pm, c.lCounts
}

// pairTabs returns one pair-state table per shard, reused across rounds.
// Shard w accumulates the pairs it owns into tabs[w] and nothing else, so
// no cache line of pair state has two writers (DESIGN.md, "Parallel
// detection engine", rule 3); every table is addressed by the global pair
// slot, and a reader finds slot i in the table of i's pool.Owner. With
// one worker that is the single table tabs[0].
func (c *structCache) pairTabs(workers int) []pairTab {
	if len(c.tabs) < workers {
		c.tabs = append(c.tabs, make([]pairTab, workers-len(c.tabs))...)
	}
	return c.tabs[:workers]
}

// nSeenBufs returns one per-source counter slice per worker, reused across
// rounds.
func (c *structCache) nSeenBufs(workers, numSources int) [][]int32 {
	for len(c.nSeen) < workers {
		c.nSeen = append(c.nSeen, make([]int32, numSources))
	}
	return c.nSeen[:workers]
}
