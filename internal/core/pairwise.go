package core

import (
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/pool"
)

// Pairwise is the exhaustive baseline of Dong et al. (VLDB 2009) as
// described in Section II-B: for every pair of sources it walks every
// shared data item, accumulates C→ and C←, and applies Eq. (2). Its time
// complexity is O(l·|D|·|S|²) over l rounds, which is exactly what the
// paper sets out to beat.
type Pairwise struct {
	Params bayes.Params
	// Workers > 1 distributes pairs over a goroutine pool, the natural
	// (but per the paper still inferior) parallelization baseline
	// mentioned in Section VIII. 0 or 1 means sequential; any value
	// produces results identical to sequential (see internal/pool).
	Workers int
}

// Name implements Detector.
func (pw *Pairwise) Name() string { return "PAIRWISE" }

// DetectRound implements Detector.
func (pw *Pairwise) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result {
	start := time.Now()
	ns := ds.NumSources()
	res := &Result{NumSources: ns}
	res.Stats.Rounds = 1

	// Workers own strided rows of the pair triangle (all pairs with a
	// given smaller source id). Each row's results are kept separate and
	// concatenated in row order afterwards, so Result.Pairs is ordered as
	// the double loop over (s1, s2) visits the pairs, for any worker count.
	workers := pool.Clamp(pw.Workers)
	rows := make([][]PairResult, ns)
	for _, stats := range pool.Shards(workers, func(w int) Stats {
		var stats Stats
		for s1 := dataset.SourceID(w); int(s1) < ns; s1 += dataset.SourceID(workers) {
			row := &Result{NumSources: ns}
			for s2 := s1 + 1; int(s2) < ns; s2++ {
				pw.detectPair(ds, st, s1, s2, row)
			}
			rows[s1] = row.Pairs
			stats.Add(row.Stats)
		}
		return stats
	}) {
		res.Stats.Add(stats)
	}
	for _, row := range rows {
		res.Pairs = append(res.Pairs, row...)
	}
	res.Stats.Detect = time.Since(start)
	return res
}

// detectPair accumulates the evidence for one pair and appends the result.
func (pw *Pairwise) detectPair(ds *dataset.Dataset, st *bayes.State, s1, s2 dataset.SourceID, res *Result) {
	p := pw.Params
	lnDiff := p.LnDiff()
	a, b := ds.BySource[s1], ds.BySource[s2]
	cTo, cFrom := 0.0, 0.0
	nShared := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Item < b[j].Item:
			i++
		case a[i].Item > b[j].Item:
			j++
		default:
			nShared++
			if a[i].Value == b[j].Value {
				pv := st.P[a[i].Item][a[i].Value]
				cTo += p.ContribSameInvN(pv, st.A[s1], st.A[s2])
				cFrom += p.ContribSameInvN(pv, st.A[s2], st.A[s1])
				res.Stats.ValuesExamined++
			} else {
				cTo += lnDiff
				cFrom += lnDiff
			}
			res.Stats.Computations += 2
			i++
			j++
		}
	}
	res.Stats.PairsConsidered++
	if nShared == 0 {
		// No shared item at all: both products in Eq. (2) are empty, the
		// posterior equals β/(β+2α) > 0.5, hence no copying. PAIRWISE
		// still "considered" the pair but records no result entry, which
		// keeps Result sizes comparable across algorithms.
		return
	}
	copying, prIndep, prTo, prFrom := decide(p.LnPriorRatio(), cTo, cFrom)
	res.Pairs = append(res.Pairs, PairResult{
		S1: s1, S2: s2,
		CTo: cTo, CFrom: cFrom,
		PrIndep: prIndep, PrTo: prTo, PrFrom: prFrom,
		Copying: copying,
	})
}
