package nra

import (
	"sort"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
)

// Input is the NRA input for copy detection as sketched at the end of
// Section II-B: for every indexed value, a list of the contribution scores
// of the source pairs sharing it, sorted decreasingly; plus one list with
// the accumulated different-value scores per pair. The aggregate score of
// a pair over all lists equals its full C→.
type Input struct {
	// ValueLists[i] corresponds to the i-th index entry.
	ValueLists []List
	// DiffList holds, per pair that provides different values somewhere,
	// the accumulated negative score (l−n)·ln(1−s).
	DiffList List
	// BuildTime is what Table X charges FAGININPUT for.
	BuildTime time.Duration
}

// PairID packs a source pair into an NRA object id.
func PairID(a, b dataset.SourceID) int64 { return int64(index.MakePairKey(a, b)) }

// BuildInput generates the NRA input lists for the C→ direction: it must
// compute the contribution score of every shared value for every pair of
// providers and sort each list — the cost the paper measures against its
// own algorithms in Table X.
func BuildInput(ds *dataset.Dataset, st *bayes.State, p bayes.Params) *Input {
	start := time.Now()
	str := index.NewStructure(ds)
	v := index.NewView(str)
	v.Rescore(st, p, index.ByContribution, nil)
	// Every pair that co-occurs anywhere gets a slot (NRA has no tail-set
	// pruning; that is part of why it loses). Slots are handed out in scan
	// order, which fixes the tie order of DiffList.
	pm := index.NewPairMap(ds.NumSources())
	var nCounts []int32

	in := &Input{ValueLists: make([]List, len(v.Order))}
	for i, eid := range v.Order {
		provs := str.Providers(eid)
		items := make([]Scored, 0, len(provs)*(len(provs)-1)/2)
		for x := 0; x < len(provs); x++ {
			for y := x + 1; y < len(provs); y++ {
				s1, s2 := provs[x], provs[y]
				slot, added := pm.GetOrAdd(s1, s2)
				if added {
					nCounts = append(nCounts, 0)
				}
				nCounts[slot]++
				c := p.ContribSame(v.P[eid], st.A[s1], st.A[s2])
				items = append(items, Scored{ID: PairID(s1, s2), Score: c})
			}
		}
		sort.Slice(items, func(a, b int) bool { return items[a].Score > items[b].Score })
		in.ValueLists[i] = List{Items: items}
	}

	lCounts := index.SharedItemCounts(ds, pm)
	lnDiff := p.LnDiff()
	diff := make([]Scored, 0, pm.Len())
	for slot, key := range pm.Keys() {
		d := float64(lCounts[slot]-nCounts[slot]) * lnDiff
		if d != 0 {
			diff = append(diff, Scored{ID: int64(key), Score: d})
		}
	}
	sort.Slice(diff, func(a, b int) bool { return diff[a].Score > diff[b].Score })
	in.DiffList = List{Items: diff}
	in.BuildTime = time.Since(start)
	return in
}

// TopPairs runs NRA over the generated input and returns the k pairs with
// the largest C→. Callers wanting both directions build a second input
// with sources swapped; the paper only times input generation.
func (in *Input) TopPairs(k int) ([]Scored, int) {
	lists := make([]List, 0, len(in.ValueLists)+1)
	lists = append(lists, in.ValueLists...)
	lists = append(lists, in.DiffList)
	if len(lists) > 64 {
		// NRA's bookkeeping here supports 64 lists; stripe the value lists
		// into 63 merged lists. Because NRA requires each object to appear
		// at most once per list, duplicate pairs inside a stripe are
		// pre-aggregated by summing their scores, then each stripe is
		// re-sorted.
		striped := make([]List, 64)
		for s := 0; s < 63; s++ {
			agg := make(map[int64]float64)
			for i := s; i < len(in.ValueLists); i += 63 {
				for _, it := range in.ValueLists[i].Items {
					agg[it.ID] += it.Score
				}
			}
			items := make([]Scored, 0, len(agg))
			for id, sc := range agg {
				items = append(items, Scored{ID: id, Score: sc})
			}
			sort.Slice(items, func(a, b int) bool { return items[a].Score > items[b].Score })
			striped[s] = List{Items: items}
		}
		striped[63] = in.DiffList
		lists = striped
	}
	return TopK(lists, k)
}
