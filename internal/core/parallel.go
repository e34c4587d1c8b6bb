package core

import (
	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/pool"
)

// scanIndex performs the entry scan over a rescored view and pair set,
// shared by all single-round algorithms and by INCREMENTAL's warm rounds.
// This is the Section VIII extension generalized to the whole detector
// family: opts.Workers shards the pair space (by the smaller source id of
// each pair, which the sorted provider lists make a pure function of the
// data), each worker runs the same accumulation kernel (scanShard) over
// the entries it would see sequentially, and the merge happens in a
// worker-independent order:
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
// Because each pair's state transitions (including the BOUND/BOUND+ early
// terminations and timers, which depend only on that pair's state and the
// per-source nSeen counts each worker recomputes identically) happen in
// scan order regardless of ownership, the Result is bit-identical to the
// sequential scan for every value of opts.Workers. The mirror of the
// paper's suggested per-entry parallelization, with the per-pair shard
// axis chosen so no reduction step is needed.
func scanIndex(ds *dataset.Dataset, st *bayes.State, p bayes.Params, opts Options, m mode,
	v *index.View, pm *index.PairMap, lCounts []int32, cache *structCache, res *Result) {

	tabs := scanShards(ds, st, p, opts, m, v, pm, lCounts, cache, &res.Stats)
	finalizePairs(p, m, pm, tabs, res)
}

// scanShards is the scan proper: it fills one pair-state table per shard
// and returns them. INCREMENTAL's rebase calls it directly (modeIndex) —
// it wants the exact per-pair scores the tables hold, not a Result.
func scanShards(ds *dataset.Dataset, st *bayes.State, p bayes.Params, opts Options, m mode,
	v *index.View, pm *index.PairMap, lCounts []int32, cache *structCache, stats *Stats) []pairTab {

	workers := pool.Clamp(opts.Workers)
	tabs := cache.pairTabs(workers)
	nSeen := cache.nSeenBufs(workers, ds.NumSources())
	for _, sh := range pool.Shards(workers, func(w int) Stats {
		makePairTab(ds, p, m, pm, lCounts, &tabs[w], w, workers)
		return scanShard(ds, st, p, m, v, pm, &tabs[w], nSeen[w], w, workers)
	}) {
		stats.Add(sh)
	}
	stats.EntriesScanned += int64(v.S.NumEntries())
	return tabs
}
