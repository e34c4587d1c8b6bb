// Package pool provides the deterministic shard-merge worker pool behind
// the parallel detection engine (the Section VIII extension, realized with
// goroutines instead of Hadoop).
//
// The execution model is deliberately rigid, because it is what makes
// parallel detection bit-identical to sequential detection:
//
//   - Work is split into `workers` shards by a pure function of the data
//     (Owns: the smaller source id of a pair; Block: a contiguous range
//     of slots, entries, items or sources), never by a scheduler
//     decision. Every shard is owned by exactly one worker, so all state
//     is single-writer and needs no locks. For state written per
//     co-occurrence the rule is one writer per cache line, not merely per
//     slot — neighbouring slots have different owners, and two cores
//     trading a line on every write cost more than the second core
//     brings: such state lives in per-shard tables when it shards by
//     Owns, and is split by Block when it shards by index.
//   - Each worker traverses its share of the input in the order the
//     sequential scan does — the inverted index entry by entry, skipping
//     what it does not own, or the pairs it owns one by one, each over
//     its shared entries in scan order (core's two loop nests) — so every
//     floating-point accumulation happens in the same order as
//     sequentially.
//   - Shard outputs are merged on the calling goroutine in shard order
//     (Shards), read back from the owner's table in slot order, or
//     written into a worker's block of a shared slice indexed in a
//     worker-independent way, so merged results do not depend on
//     goroutine completion order.
//
// Together these rules make the result independent of both scheduling and
// the worker count itself: Workers=7 produces the same bytes as Workers=1.
// See DESIGN.md ("Parallel detection engine") for the full argument.
package pool

import "runtime"

// Clamp normalizes a requested worker count to at least 1. It deliberately
// does NOT cap at GOMAXPROCS: the shard count is part of the (determinism-
// irrelevant) execution plan, and tests exercise multi-shard execution on
// single-core machines. Oversubscription is safe but not free — each shard
// holds a table of its own for the work it owns and, under core's entry
// walk, walks the shared input to find it — so callers wanting "use the
// hardware" pass Auto().
func Clamp(workers int) int {
	if workers < 1 {
		return 1
	}
	return workers
}

// Auto returns the worker count matching the available parallelism
// (GOMAXPROCS), the recommended default for CLI entry points.
func Auto() int { return runtime.GOMAXPROCS(0) }

// Owns reports whether worker w owns the work item identified by id under
// workers-way modular sharding; with workers <= 1 the single worker owns
// everything. Every parallel kernel that shards the same id space (the
// scan and INCREMENTAL's prepare and pass A all shard by the smaller
// source id of a pair) must route ownership through this one predicate —
// the bit-identity argument in DESIGN.md requires their shard functions
// to agree exactly.
func Owns(workers, w, id int) bool {
	return Owner(workers, id) == w
}

// Owner returns the worker that Owns id; the merge steps use it to find
// the shard holding a pair's state.
func Owner(workers, id int) int {
	if workers <= 1 {
		return 0
	}
	return id % workers
}

// Block returns worker w's half-open range [lo, hi) of the n indices
// [0, n), split into workers contiguous blocks whose sizes differ by at
// most one. It is the one way an index-addressed fan-out (pair slots,
// entries, items, sources) is divided: a worker that writes out[i] for
// the i of its block shares at most the two cache lines at the block's
// edges with its neighbours, where a stride (i = w, w+workers, ...) would
// make every line of out a line all workers write. The blocks partition
// [0, n) for every worker count, and with workers <= 1 the single worker
// gets all of it.
func Block(workers, w, n int) (lo, hi int) {
	if workers <= 1 {
		return 0, n
	}
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// Run executes fn(w) for every w in [0, workers) and waits for all of
// them. With workers <= 1 it calls fn(0) inline, so the sequential path
// pays no goroutine overhead and shares the exact same kernel code.
func Run(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	// Buffered so worker sends never block: if fn(0) panics on the calling
	// goroutine below, the spawned workers can still finish and exit
	// instead of leaking, blocked on an undrained channel.
	done := make(chan struct{}, workers-1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			fn(w)
		}(w)
	}
	fn(0)
	for w := 1; w < workers; w++ {
		<-done
	}
}

// Shards executes fn(w) for every w in [0, workers) and returns the
// per-shard results indexed by shard, so the caller can merge them in
// shard order regardless of goroutine completion order.
func Shards[T any](workers int, fn func(w int) T) []T {
	out := make([]T, Clamp(workers))
	Run(workers, func(w int) { out[w] = fn(w) })
	return out
}
