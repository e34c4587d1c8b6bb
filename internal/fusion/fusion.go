// Package fusion implements the truth-finding side of the iterative
// process of Section II: the ACCU-style data-fusion model of Dong et al.
// (VLDB 2009) that considers both source accuracy and copying. Each round
// it derives value probabilities from accuracy-weighted votes — where the
// vote of a source believed to copy is discounted by the probability its
// value was copied — and then recomputes source accuracies from the value
// probabilities. Combined with any copy detector from internal/core it
// forms the full loop the paper accelerates: copy detection → truth
// finding → source accuracy, until convergence.
//
//copydetect:deterministic
package fusion

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/pool"
)

// copyGraph gives, per source, its copying partners with the probability
// that the source copies from the partner, for vote discounting.
type copyGraph struct {
	partners [][]partner
}

type partner struct {
	other dataset.SourceID
	// prCopies is Pr(this source copies from other | Φ).
	prCopies float64
}

// newCopyGraph indexes the copying pairs of a detection result. Without a
// result there is nothing to discount by: the graph is nil, which
// ValueProbs reads as undiscounted voting.
func newCopyGraph(res *core.Result) *copyGraph {
	if res == nil {
		return nil
	}
	g := &copyGraph{partners: make([][]partner, res.NumSources)}
	for _, pr := range res.Pairs {
		if !pr.Copying {
			continue
		}
		// pr.PrTo is Pr(S1→S2|Φ): S1 copies from S2.
		g.partners[pr.S1] = append(g.partners[pr.S1], partner{other: pr.S2, prCopies: pr.PrTo})
		g.partners[pr.S2] = append(g.partners[pr.S2], partner{other: pr.S1, prCopies: pr.PrFrom})
	}
	return g
}

// ValueProbs computes P(D.v) for every value of every item. When g is
// non-nil, votes are discounted for copying: providers of a value are
// ranked by accuracy, and each provider's vote counts only with the
// probability it did not copy the value from a higher-ranked provider
// (independence factor I(S) of Dong et al.). The vote of source S is
// q(S)·I(S) with the accuracy score q(S) = ln(n·A(S)/(1−A(S))), and value
// probabilities follow from normalizing e^votes over the item's domain,
// including its unobserved false values. A value nobody provides (one the
// gold standard names, say) has vote 0.
func ValueProbs(ds *dataset.Dataset, st *bayes.State, p bayes.Params, g *copyGraph) [][]float64 {
	return valueProbs(ds, st, p, g, 1, nil)
}

// probScratch is valueProbs' working memory: everything a call computes
// before its votes, and each worker's provider stamps. A call sizes and
// overwrites or clears every buffer, so one scratch may serve any number of
// calls, one at a time; the probabilities themselves are never in it.
type probScratch struct {
	q              []float64          // accuracy scores
	order          []dataset.SourceID // sources in vote order
	rank           []int32            // position of each source in order
	valOff, obsOff []int32            // first cell / provider slot of each item
	ends           []int32            // per cell: the end of its providers in provs
	provs          []dataset.SourceID // providers grouped by cell, item-major
	stamps         [][]int32          // per worker, one slot per source
}

// valueProbs is ValueProbs over workers contiguous blocks of items. An
// item's probabilities depend on that item's observations alone, and each
// is computed by the same operations in the same order whichever block it
// falls in, so the result is bit-identical for every worker count.
//
// Value v of item d is cell valOff[d]+v. The call ranks the sources once
// (accuracy descending, id ascending: the order in which a value's votes
// are summed), then every block regroups its items' providers by cell
// with a counting sort — walking the sources in rank order, so each cell
// lists its providers in rank order without any per-value sort — and
// votes cell by cell into one arena, which the returned rows sub-slice.
// The arena and the rows are new on every call; the rest is sc's (nil: a
// scratch of the call's own).
func valueProbs(ds *dataset.Dataset, st *bayes.State, p bayes.Params, g *copyGraph, workers int, sc *probScratch) [][]float64 {
	if sc == nil {
		sc = new(probScratch)
	}
	numItems, numSources := ds.NumItems(), ds.NumSources()
	q := resize(sc.q, numSources)
	for s, a := range st.A {
		q[s] = math.Log(p.N * a / (1 - a))
	}
	// Undiscounted votes are summed in source order, discounted ones in
	// rank order.
	order := resize(sc.order, numSources)
	for s := range order {
		order[s] = dataset.SourceID(s)
	}
	var rank []int32
	if g != nil {
		slices.SortFunc(order, func(a, b dataset.SourceID) int {
			if c := cmp.Compare(st.A[b], st.A[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		rank = resize(sc.rank, numSources)
		for i, s := range order {
			rank[s] = int32(i)
		}
		sc.rank = rank
	}

	valOff := resize(sc.valOff, numItems+1)
	obsOff := resize(sc.obsOff, numItems+1)
	valOff[0], obsOff[0] = 0, 0
	for d := range ds.ByItem {
		valOff[d+1] = valOff[d] + int32(ds.NumValues(dataset.ItemID(d)))
		obsOff[d+1] = obsOff[d] + int32(len(ds.ByItem[d]))
	}
	arena := make([]float64, valOff[numItems]) // votes, then probabilities, per cell
	ends := resize(sc.ends, int(valOff[numItems]))
	provs := resize(sc.provs, int(obsOff[numItems]))
	probs := make([][]float64, numItems)

	workers = pool.Clamp(workers)
	if len(sc.stamps) < workers {
		sc.stamps = append(sc.stamps, make([][]int32, workers-len(sc.stamps))...)
	}
	for w := 0; w < workers; w++ {
		sc.stamps[w] = resize(sc.stamps[w], numSources)
	}
	sc.q, sc.order, sc.valOff, sc.obsOff, sc.ends, sc.provs = q, order, valOff, obsOff, ends, provs
	pool.Run(workers, func(w int) {
		lo, hi := pool.Block(workers, w, numItems)
		if lo == hi {
			return
		}
		// Count the providers of each cell, turn the counts into each
		// cell's first slot, then deal the sources out in vote order. The
		// two views of a Dataset list the same observations
		// (Dataset.Validate), so the slots counted from ByItem are exactly
		// the ones filled from BySource.
		clear(ends[valOff[lo]:valOff[hi]])
		for d := lo; d < hi; d++ {
			for _, sv := range ds.ByItem[d] {
				ends[valOff[d]+sv.Value]++
			}
		}
		next := obsOff[lo]
		for c := valOff[lo]; c < valOff[hi]; c++ {
			n := ends[c]
			ends[c] = next
			next += n
		}
		for _, s := range order {
			obs := ds.BySource[s]
			i := sort.Search(len(obs), func(i int) bool { return int(obs[i].Item) >= lo })
			for ; i < len(obs) && int(obs[i].Item) < hi; i++ {
				c := valOff[obs[i].Item] + obs[i].Value
				provs[ends[c]] = s
				ends[c]++
			}
		}

		stamp := sc.stamps[w]
		clear(stamp)
		first := obsOff[lo]
		for d := lo; d < hi; d++ {
			if valOff[d] == valOff[d+1] {
				continue // no values: the row stays nil
			}
			votes := arena[valOff[d]:valOff[d+1]:valOff[d+1]]
			for v := range votes {
				c := valOff[d] + int32(v)
				votes[v] = valueVote(provs[first:ends[c]], q, g, rank, stamp, c+1)
				first = ends[c]
			}
			normalizeVotes(votes, p.N)
			probs[d] = votes
		}
	})
	return probs
}

// resize returns s with n elements, reusing its capacity when it suffices.
// Contents are unspecified. Like core's buffers, a first allocation is
// exact and an outgrown one takes an eighth more, so a scratch carried
// across the rounds of a growing dataset is not reallocated every round.
func resize[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/8)
}

// valueVote accumulates the discounted votes of the providers of a value,
// given in decreasing accuracy (ties by id) so the most accurate provider
// counts fully and likely copiers are discounted against it. stamp is the
// worker's scratch, one slot per source, and tag a non-zero number no
// other value of the call uses: stamp[s] == tag marks s as a provider of
// this value.
//
//copydetect:hotpath
func valueVote(provs []dataset.SourceID, q []float64, g *copyGraph, rank, stamp []int32, tag int32) float64 {
	sum := 0.0
	if g == nil || len(provs) == 1 {
		for _, s := range provs {
			sum += q[s]
		}
		return sum
	}
	for _, s := range provs {
		stamp[s] = tag
	}
	for _, s := range provs {
		ind := 1.0
		for _, pt := range g.partners[s] {
			if stamp[pt.other] == tag && rank[pt.other] < rank[s] {
				ind *= 1 - pt.prCopies
			}
		}
		sum += q[s] * ind
	}
	return sum
}

// normalizeVotes turns an item's votes into probabilities over its
// domain, in place: the named values plus max(0, n+1−k) unobserved
// candidates with vote 0, computed in log space.
//
//copydetect:hotpath
func normalizeVotes(votes []float64, n float64) {
	m := 0.0 // unobserved candidates have vote 0
	for _, v := range votes {
		if v > m {
			m = v
		}
	}
	unobserved := n + 1 - float64(len(votes))
	if unobserved < 0 {
		unobserved = 0
	}
	den := unobserved * math.Exp(-m)
	for i, v := range votes {
		votes[i] = math.Exp(v - m)
		den += votes[i]
	}
	for i := range votes {
		votes[i] /= den
	}
}

// Accuracies recomputes A(S) as the average probability of the values the
// source provides, clamped into [0.01, 0.99].
func Accuracies(ds *dataset.Dataset, probs [][]float64) []float64 {
	return accuracies(ds, probs, 1)
}

// accuracies is Accuracies over workers contiguous blocks of sources; a
// source's accuracy depends on that source's observations alone.
func accuracies(ds *dataset.Dataset, probs [][]float64, workers int) []float64 {
	acc := make([]float64, ds.NumSources())
	workers = pool.Clamp(workers)
	pool.Run(workers, func(w int) {
		lo, hi := pool.Block(workers, w, len(acc))
		for s := lo; s < hi; s++ {
			acc[s] = sourceAccuracy(ds.BySource[s], probs)
		}
	})
	return acc
}

//copydetect:hotpath
func sourceAccuracy(obs []dataset.Obs, probs [][]float64) float64 {
	if len(obs) == 0 {
		return 0.5
	}
	sum := 0.0
	for _, o := range obs {
		sum += probs[o.Item][o.Value]
	}
	return min(max(sum/float64(len(obs)), 0.01), 0.99)
}
