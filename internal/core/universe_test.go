package core

import (
	"math/rand"
	"slices"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/testkit"
)

// allPairsInto is the walk structCache made for its all-pairs map before
// the first round's candidate pairs were reused for it: every entry's
// provider pairs in entry order, stopping once all n(n−1)/2 exist. It is
// the reference pmAll is checked against.
func allPairsInto(s *index.Structure, numSources int, pm *index.PairMap) {
	limit := numSources * (numSources - 1) / 2
	for e := 0; e < s.NumEntries(); e++ {
		provs := s.Providers(int32(e))
		for x := 0; x < len(provs); x++ {
			for y := x + 1; y < len(provs); y++ {
				if _, added := pm.GetOrAdd(provs[x], provs[y]); added && pm.Len() >= limit {
					return
				}
			}
		}
	}
}

// TestPairUniverseEqualsAllPairs: on every test-kit preset and under both
// loop nests, the all-pairs map built from the first round's candidates
// and tail holds exactly the pairs of the all-pairs walk, each with the
// l(S1,S2) the counting twins give that walk's map, and every round
// considers the candidate pairs a walk limited by the reference count
// collects. The four kernel-benchmark presets, the largest, run in the
// full suite only.
func TestPairUniverseEqualsAllPairs(t *testing.T) {
	p := bayes.DefaultParams()
	presets := testkit.Lookup("book-cs", "stock-1day", "book-full", "stock-2wk",
		"book-full-x0.05", "stock-1day-x0.05", "book-cs-x0.2", "stock-1day-x0.008",
		"stock-1day-x0.15", "book-cs-x0.5", "book-full-x0.25", "stock-2wk-x0.02")
	if testing.Short() {
		presets = presets[:8]
	}
	for _, nest := range []struct {
		name  string
		sweep bool
	}{{"walk", false}, {"sweep", true}} {
		t.Run(nest.name, func(t *testing.T) {
			ForceNest(t, nest.sweep)
			testkit.ForEach(t, presets, func(t *testing.T, ds *dataset.Dataset) {
				rng := rand.New(rand.NewSource(9))
				var c structCache
				ns := ds.NumSources()
				for round, st := range []*bayes.State{uniformState(ds, 0.8, 0.5), randomState(rng, ds)} {
					res := scanRound(ds, st, p, Options{Workers: 2}, modeHybrid, &c)
					ref := index.NewPairMap(ns)
					allPairsInto(c.str, ns, ref)
					var refL []int32
					if c.str.ItemBits != nil {
						refL = make([]int32, ref.Len())
						index.SharedItemCountsBits(c.str, ref, refL)
					} else {
						refL = index.SharedItemCounts(ds, ref)
					}
					if c.pmAll.Len() != ref.Len() {
						t.Fatalf("round %d: %d pairs in pmAll, want %d", round+1, c.pmAll.Len(), ref.Len())
					}
					for refSlot, key := range ref.Keys() {
						slot := c.pmAll.Get(key.Sources())
						if slot < 0 {
							t.Fatalf("round %d: pair %v missing from pmAll", round+1, key)
						}
						if c.lAll[slot] != refL[refSlot] {
							t.Fatalf("round %d: l%v = %d, want %d", round+1, key, c.lAll[slot], refL[refSlot])
						}
					}
					cand := index.NewPairMap(ns)
					index.CandidatePairsInto(c.view, cand, ref.Len())
					if res.Stats.PairsConsidered != int64(cand.Len()) || !slices.Equal(c.pm.Keys(), cand.Keys()) {
						t.Fatalf("round %d: %d pairs considered, want %d in the same slots",
							round+1, res.Stats.PairsConsidered, cand.Len())
					}
				}
			})
		})
	}
}
