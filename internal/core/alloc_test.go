package core

import (
	"math/rand"
	"testing"
)

// TestIncrementalSteadyStateAllocs: at one worker a steady-state
// incremental round allocates exactly what it returns — its Result and
// its Pairs. The passes themselves allocate nothing: every buffer they
// touch is preallocated when the detector prepares, and the worker
// closures are built once. This is the contract PERFORMANCE.md documents;
// any regression here shows up as a third allocation.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, st := randomInstance(rng, 10, 200)
	p := exampleParams()
	inc := &Incremental{Params: p, Opts: Options{Workers: 1}}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)
	inc.DetectRound(ds, st, 3) // first incremental round pays one-time costs

	round := 4
	if n := testing.AllocsPerRun(50, func() {
		inc.DetectRound(ds, st, round)
		round++
	}); n > 2 {
		t.Errorf("steady-state incremental round allocated %v times, want <= 2 (Result + Pairs)", n)
	}
}

// TestIncrementalSteadyStateAllocsParallel: with several workers the pool
// necessarily allocates a little per fan-out (channel, goroutine
// closures), but the count must stay small and bounded — the per-pair and
// per-entry work itself is allocation-free.
func TestIncrementalSteadyStateAllocsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, st := randomInstance(rng, 10, 200)
	p := exampleParams()
	inc := &Incremental{Params: p, Opts: Options{Workers: 4}}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)
	inc.DetectRound(ds, st, 3)

	round := 4
	if n := testing.AllocsPerRun(20, func() {
		inc.DetectRound(ds, st, round)
		round++
	}); n > 64 {
		t.Errorf("steady-state round at 4 workers allocated %v times, want <= 64 (pool fan-out only)", n)
	}
}

// TestScanSteadyStateReuse: repeated rounds of the scan detectors against
// a warm cache must allocate only the per-round Result and pair slice —
// O(1) small allocations, not O(pairs) or O(entries).
func TestScanSteadyStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds, st := randomInstance(rng, 10, 200)
	p := exampleParams()
	h := &Hybrid{Params: p, Opts: Options{Workers: 1}}
	h.DetectRound(ds, st, 1)
	if n := testing.AllocsPerRun(20, func() {
		h.DetectRound(ds, st, 2)
	}); n > 8 {
		t.Errorf("warm HYBRID round allocated %v times, want <= 8 (Result + Pairs only)", n)
	}
}

// TestIncrementalUnchangedRoundAllocs: a steady round that touches no pair
// and changes no decision, after one that touched none either, returns the
// slice the round before returned, so it allocates its Result and nothing
// else.
func TestIncrementalUnchangedRoundAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, st := randomInstance(rng, 10, 200)
	p := exampleParams()
	inc := &Incremental{Params: p, Opts: Options{Workers: 1}}
	inc.DetectRound(ds, st, 1)
	inc.DetectRound(ds, st, 2)
	prev := inc.DetectRound(ds, st, 3).Pairs

	round := 4
	if n := testing.AllocsPerRun(50, func() {
		res := inc.DetectRound(ds, st, round)
		if &res.Pairs[0] != &prev[0] {
			t.Fatalf("round %d did not return the previous round's slice", round)
		}
		round++
	}); n > 1 {
		t.Errorf("unchanged steady-state round allocated %v times, want <= 1 (Result)", n)
	}
}
