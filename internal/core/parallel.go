package core

import (
	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/pool"
)

// scanIndex performs the scan over a rescored view and pair set, shared by
// all single-round algorithms and by INCREMENTAL's warm rounds. This is the
// Section VIII extension generalized to the whole detector family:
// opts.Workers shards the pair space (by the smaller source id of each pair,
// which the sorted provider lists make a pure function of the data), each
// worker runs the scan's loop nest over its shard — the entry walk
// (scanShard) over the entries it would see sequentially, or the pair sweep
// (sweepShard) over the pairs it owns, whichever the data calls for
// (sweeps) — and the merge happens in a worker-independent order:
//
//   - per-pair state is one 64-byte record per pair slot (pairRec), one
//     table per shard (structCache.pairTabs): a shard initializes and
//     writes only its own table, so the scan needs no locks and no cache
//     line of pair state ever has two writers. One writer per slot of a
//     shared table is not enough: neighbouring slots belong to different
//     owners, nothing aligns the table to a line boundary, and workers
//     that share lines spend the scan stealing them from each other
//     (PERFORMANCE.md has the measurement);
//   - finalizePairs then walks the slots in slot order by block, worker w
//     writing the w-th block of Result.Pairs and reading each slot from
//     its owner's table, so Result.Pairs is ordered identically for every
//     worker count;
//   - Stats counters are summed in shard order.
//
// A pair's state transitions (including the BOUND/BOUND+ early terminations
// and timers) depend only on its own shared entries in scan order and on
// n(S1), n(S2) at those positions — which the walk recounts per worker and
// the sweep reads off the position index — so they happen identically
// regardless of ownership and of the nest, and the Result is bit-identical to
// the sequential scan for every value of opts.Workers. The mirror of the
// paper's suggested per-entry parallelization, with the per-pair shard axis
// chosen so no reduction step is needed.
func scanIndex(ds *dataset.Dataset, st *bayes.State, p bayes.Params, opts Options, m mode,
	v *index.View, pm *index.PairMap, lCounts []int32, cache *structCache, res *Result) {

	tabs := scanShards(ds, st, p, opts, m, v, pm, lCounts, cache, &res.Stats)
	finalizePairs(p, m, pm, tabs, res)
}

// scanShards is the scan proper: it picks the loop nest (the sweep gets its
// position index built here, once, for all shards to read), fills one
// pair-state table per shard and returns them. INCREMENTAL's rebase calls it
// directly (modeIndex) — it wants the exact per-pair scores the tables hold,
// not a Result.
func scanShards(ds *dataset.Dataset, st *bayes.State, p bayes.Params, opts Options, m mode,
	v *index.View, pm *index.PairMap, lCounts []int32, cache *structCache, stats *Stats) []pairTab {

	workers := pool.Clamp(opts.Workers)
	tabs := cache.pairTabs(workers)
	sweep := chooseSweep(v, lCounts)
	var px *posIndex
	var nSeen [][]int32
	if sweep {
		px = &cache.pos
		px.build(v, ds.NumSources(), 1/p.N)
	} else {
		nSeen = cache.nSeenBufs(workers, ds.NumSources())
	}
	for _, sh := range pool.Shards(workers, func(w int) Stats {
		makePairTab(ds, p, m, pm, lCounts, &tabs[w], w, workers)
		if sweep {
			return sweepShard(ds, st, p, m, v, pm, px, &tabs[w], w, workers)
		}
		return scanShard(ds, st, p, m, v, pm, &tabs[w], nSeen[w], w, workers)
	}) {
		stats.Add(sh)
	}
	stats.EntriesScanned += int64(v.S.NumEntries())
	return tabs
}
