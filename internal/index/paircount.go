package index

import "copydetect/internal/dataset"

// SharedItemCounts computes l(S1,S2) — the number of data items covered by
// both sources — for every pair registered in pm. Rather than a quadratic
// pairwise merge of source observation lists, it performs a set-similarity
// self-join in the style of Arasu et al. (VLDB 2006): one pass over the
// per-item provider lists, incrementing counts only for candidate pairs.
// The cost is Σ_D |providers(D)|² increments.
func SharedItemCounts(ds *dataset.Dataset, pm *PairMap) []int32 {
	counts := make([]int32, pm.Len())
	for d := range ds.ByItem {
		svs := ds.ByItem[d]
		for x := 0; x < len(svs); x++ {
			for y := x + 1; y < len(svs); y++ {
				if slot := pm.Get(svs[x].Source, svs[y].Source); slot >= 0 {
					counts[slot]++
				}
			}
		}
	}
	return counts
}
