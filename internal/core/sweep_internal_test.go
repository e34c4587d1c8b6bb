package core

import (
	"math"
	"math/rand"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/gen"
	"copydetect/internal/index"
	"copydetect/internal/pool"
)

// scanForced runs one scan of mode m under the given nest and returns the
// Result and the cache holding its shard tables.
func scanForced(t *testing.T, n nest, ds *dataset.Dataset, st *bayes.State, p bayes.Params, m mode, workers int) (*Result, *structCache) {
	t.Helper()
	forceNest = n
	defer func() { forceNest = nestByRule }()
	c := new(structCache)
	return scanRound(ds, st, p, Options{Workers: workers}, m, c), c
}

// assertNestsAgree scans ds under every mode and workers {1, 3} with each
// nest forced, and requires the same Result (exact floats), the same Stats
// counters and — bit for bit, timers included — the same record in the
// owner's table for every pair, which is what INCREMENTAL's freeze reads.
// It returns the walk's HYBRID result for the caller's own checks.
func assertNestsAgree(t *testing.T, ds *dataset.Dataset, st *bayes.State, p bayes.Params) *Result {
	t.Helper()
	var hybrid *Result
	for m := modeIndex; m <= modeFreeze; m++ {
		for _, workers := range []int{1, 3} {
			walk, wc := scanForced(t, nestWalk, ds, st, p, m, workers)
			sweep, sc := scanForced(t, nestSweep, ds, st, p, m, workers)
			if len(sweep.Pairs) != len(walk.Pairs) {
				t.Fatalf("mode %d workers %d: sweep has %d pairs, walk %d", m, workers, len(sweep.Pairs), len(walk.Pairs))
			}
			for i := range walk.Pairs {
				if sweep.Pairs[i] != walk.Pairs[i] {
					t.Fatalf("mode %d workers %d pair %d:\n  walk  %+v\n  sweep %+v", m, workers, i, walk.Pairs[i], sweep.Pairs[i])
				}
			}
			ws, ss := walk.Stats, sweep.Stats
			ws.IndexBuild, ws.Detect, ss.IndexBuild, ss.Detect = 0, 0, 0, 0
			if ws != ss {
				t.Fatalf("mode %d workers %d: stats\n  walk  %+v\n  sweep %+v", m, workers, ws, ss)
			}
			for slot, key := range wc.pm.Keys() {
				s1, _ := key.Sources()
				o := pool.Owner(workers, int(s1))
				if wr, sr := wc.tabs[o].rec[slot], sc.tabs[o].rec[slot]; wr != sr {
					t.Fatalf("mode %d workers %d slot %d: record\n  walk  %+v\n  sweep %+v", m, workers, slot, wr, sr)
				}
			}
			if m == modeHybrid && workers == 1 {
				hybrid = walk
			}
		}
	}
	return hybrid
}

// uniformState gives every source accuracy acc and every value probability pv.
func uniformState(ds *dataset.Dataset, acc, pv float64) *bayes.State {
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), acc)
	for d := range st.P {
		for v := range st.P[d] {
			st.P[d][v] = pv
		}
	}
	return st
}

// sharedRuns builds three sources over items D0..D(n-1): A and B provide
// "t" on every item, C provides it on every third, so the index has exactly
// n entries, (A, B) shares all of them and the pairs with C a third.
func sharedRuns(n int) *dataset.Dataset {
	b := dataset.NewBuilder()
	for d := 0; d < n; d++ {
		item := "D" + itoa(d)
		b.Add("A", item, "t")
		b.Add("B", item, "t")
		if d%3 == 0 {
			b.Add("C", item, "t")
		} else {
			b.Add("C", item, "c"+itoa(d))
		}
	}
	return b.Build()
}

// TestSweepEqualsWalkEntryCounts: the last position word is full, holds one bit,
// or lacks one, and a pair sharing every position visits bit 63 of every
// full word — the tz = 63 mask of the n(S) popcount.
func TestSweepEqualsWalkEntryCounts(t *testing.T) {
	p := bayes.DefaultParams()
	for _, n := range []int{64, 65, 127, 128, 129} {
		ds := sharedRuns(n)
		if got := index.NewStructure(ds).NumEntries(); got != n {
			t.Fatalf("%d entries, want %d", got, n)
		}
		st := randomState(rand.New(rand.NewSource(int64(n))), ds)
		if res := assertNestsAgree(t, ds, st, p); len(res.Pairs) != 3 {
			t.Errorf("n=%d: %d candidate pairs, want 3", n, len(res.Pairs))
		}
	}
	// No entry at all: zero position words.
	b := dataset.NewBuilder()
	b.Add("A", "D0", "x")
	b.Add("B", "D0", "y")
	ds := b.Build()
	assertNestsAgree(t, ds, randomState(rand.New(rand.NewSource(1)), ds), p)
}

// TestSweepEqualsWalkWordEnds: a pair whose only shared positions are the first
// and the last bit of a position word. Every entry has two providers and the
// same score, so the scan order is the entry order and (A, B)'s two entries
// sit at positions 0 and 63.
func TestSweepEqualsWalkWordEnds(t *testing.T) {
	b := dataset.NewBuilder()
	for d := 0; d < 70; d++ {
		item := "D" + itoa(d)
		if d == 0 || d == 63 {
			b.Add("A", item, "t")
			b.Add("B", item, "t")
		} else {
			b.Add("C", item, "t")
			b.Add("D", item, "t")
		}
	}
	ds := b.Build()
	st := uniformState(ds, 0.8, 0.3)
	p := bayes.DefaultParams()

	var c structCache
	v, _, _ := c.round(ds, st, p, index.ByContribution, nil)
	px := &c.pos
	px.build(v, ds.NumSources(), 1/p.N)
	if got, want := px.bits[0]&px.bits[px.words], uint64(1)|1<<63; px.words != 2 || got != want {
		t.Fatalf("(A, B) shares positions %#x of word 0 (of %d words), want %#x", got, px.words, want)
	}
	res := assertNestsAgree(t, ds, st, p)
	if len(res.Pairs) != 2 || res.Pairs[1].S1 != 0 || res.Pairs[1].S2 != 1 {
		t.Fatalf("candidate pairs %+v, want (C, D) and (A, B)", res.Pairs)
	}
}

// TestSweepEqualsWalkTimersInsideWord: A and B agree on 128 values that are very
// likely true — weak evidence each — and differ on 32 more items, so BOUND+
// keeps the pair undecided to the end of a two-word index. Evaluating only at
// word boundaries it would evaluate each bound at most twice; it evaluates
// them dozens of times — timers armed inside a word expire inside it — and
// exactly as often as the walk, which assertNestsAgree checks through
// Stats.Computations.
func TestSweepEqualsWalkTimersInsideWord(t *testing.T) {
	b := dataset.NewBuilder()
	for d := 0; d < 128; d++ {
		item := "D" + itoa(d)
		b.Add("A", item, "t")
		b.Add("B", item, "t")
		b.Add("C", item, "c")
	}
	for d := 0; d < 32; d++ {
		item := "X" + itoa(d)
		b.Add("A", item, "a")
		b.Add("B", item, "b")
	}
	ds := b.Build()
	st := uniformState(ds, 0.95, 0.9)
	p := bayes.DefaultParams()
	assertNestsAgree(t, ds, st, p)
	res, _ := scanForced(t, nestSweep, ds, st, p, modeBoundPlus, 1)
	evals := res.Stats.Computations - 2*res.Stats.ValuesExamined
	if len(res.Pairs) != 1 || res.Stats.ValuesExamined != 128 || evals <= 2*2+2 {
		t.Errorf("%d pairs, %d values examined, %d bound evaluations: no timer expired inside a word",
			len(res.Pairs), res.Stats.ValuesExamined, evals)
	}
}

// TestSweepEqualsWalkProof: degenerate accuracies and probabilities make the
// independence probability of a shared value zero — sharing is proof, the
// products go to +Inf and stay there — in both nests alike.
func TestSweepEqualsWalkProof(t *testing.T) {
	ds := sharedRuns(100)
	st := randomState(rand.New(rand.NewSource(7)), ds)
	st.A[0] = 1 // A never errs ...
	for d := 40; d < 50; d++ {
		for v := range st.P[d] {
			st.P[d][v] = 0 // ... and shares values that are certainly false
		}
	}
	res := assertNestsAgree(t, ds, st, bayes.DefaultParams())
	proofs := 0
	for _, pr := range res.Pairs {
		if math.IsInf(pr.CTo, 1) {
			proofs++
		}
	}
	if proofs == 0 {
		t.Errorf("no pair reached the +Inf path: %+v", res.Pairs)
	}
}

// TestSweepEqualsWalkExtensions: the coverage-evidence seed and the value
// popularities reach the sweep's records and factors as they do the walk's.
func TestSweepEqualsWalkExtensions(t *testing.T) {
	ds, st := randomInstance(rand.New(rand.NewSource(3)), 9, 300)
	p := bayes.DefaultParams()
	base := assertNestsAgree(t, ds, st, p)

	cov := p
	cov.CoverageWeight = 0.5
	withCov := assertNestsAgree(t, ds, st, cov)

	dist := st.Clone()
	dist.Pop = dataset.ValuePopularities(ds)
	withDist := assertNestsAgree(t, ds, dist, p)

	moved := func(a, b *Result) bool {
		for i := range a.Pairs {
			if i < len(b.Pairs) && a.Pairs[i].CTo != b.Pairs[i].CTo {
				return true
			}
		}
		return false
	}
	if !moved(base, withCov) || !moved(base, withDist) {
		t.Error("an extension changed no score; the test lost its point")
	}
}

// TestSweepRule pins the routing rule on the shapes it was sized on: Stock
// sweeps at every scale, Book-CS from a fifth of its size up and Book-full
// walk, and so do a structure whose bitsets the memory guard declined and a
// scan with no candidate pair. The rule reads the scan's data and nothing
// else — it has no worker count to depend on — and a detector at any worker
// count builds a position index exactly when the rule says sweep.
func TestSweepRule(t *testing.T) {
	p := bayes.DefaultParams()
	for _, c := range []struct {
		id    string
		cfg   gen.Config
		scale float64
		sweep bool
		long  bool // skipped under -short
	}{
		{"stock-1day-x0.01", gen.Stock1Day(1), 0.01, true, false},
		{"stock-1day-x0.15", gen.Stock1Day(1), 0.15, true, false},
		{"stock-1day-x0.25", gen.Stock1Day(1), 0.25, true, true},
		{"stock-2wk-x0.1", gen.Stock2Wk(1), 0.1, true, true},
		{"book-cs-x0.2", gen.BookCS(1), 0.2, false, false},
		{"book-cs-x0.5", gen.BookCS(1), 0.5, false, true},
		{"book-cs-x1", gen.BookCS(1), 1, false, true},
		{"book-full-x0.25", gen.BookFull(1), 0.25, false, true},
	} {
		if c.long && testing.Short() {
			continue
		}
		ds, _, err := gen.Generate(gen.Scale(c.cfg, c.scale))
		if err != nil {
			t.Fatal(err)
		}
		st := randomState(rand.New(rand.NewSource(2)), ds)
		var cache structCache
		v, _, l := cache.round(ds, st, p, index.ByContribution, nil)
		if got := chooseSweep(v, l); got != c.sweep {
			t.Errorf("%s: rule says sweep = %v, want %v", c.id, got, c.sweep)
		}
		if sweeps(l, v.S.NumEntries(), false) {
			t.Errorf("%s: sweeps without bitsets", c.id)
		}
		if c.long {
			continue
		}
		for _, workers := range []int{1, 2, 3, 8} {
			det := &Hybrid{Params: p, Opts: Options{Workers: workers}}
			det.DetectRound(ds, st, 1)
			if swept := len(det.cache.pos.fac) > 0; swept != c.sweep {
				t.Errorf("%s workers=%d: swept = %v, want %v", c.id, workers, swept, c.sweep)
			}
		}
	}
	if sweeps(nil, 1000, true) {
		t.Error("a scan with no candidate pair sweeps")
	}
	// The threshold itself: pairs sharing exactly as many items as there are
	// position words sweep, one item fewer in total walks.
	if !sweeps([]int32{2, 4}, 129, true) || sweeps([]int32{2, 3}, 129, true) {
		t.Error("the rule is not Σl ≥ pairs·⌈entries/64⌉")
	}
}
