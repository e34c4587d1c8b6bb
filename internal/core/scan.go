package core

import (
	"math"
	"math/rand"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/pool"
)

// Options configures the index-driven single-round algorithms. Production
// callers (the library API, the daemon, the CLIs) set Workers only.
type Options struct {
	// Order is the entry processing order and Seed seeds it when Order ==
	// Random. They exist for Figure 3, which compares the three orderings:
	// internal/experiments/figures.go is their one non-test caller, and
	// everything else runs the default, ByContribution.
	Order index.Order
	Seed  int64
	// Workers parallelizes detection across a goroutine pool (the Section
	// VIII extension): the entry scan of INDEX/BOUND/BOUND+/HYBRID is
	// sharded over the pair space, and INCREMENTAL fans out its base-score
	// computation, entry classification, delta application and pass 1–3
	// re-examination. 0 or 1 is sequential. The value is the shard count,
	// not a core count: results are bit-identical for every value (see
	// internal/pool and DESIGN.md). Each shard keeps a pair-state table
	// of its own, so memory for pair state grows with the shard count,
	// and under the entry walk — the loop nest of scans whose pairs share
	// few items, see sweeps — each shard also walks the index entries
	// itself to filter them for the pairs it owns: keep Workers near the
	// core count. Oversubscribing wastes memory and, under the walk,
	// time; it never changes results. CLI entry points default to
	// pool.Auto() (GOMAXPROCS), and
	// the entry points that build a fusion.TruthFinder pass it the same
	// value.
	Workers int
}

// shareThreshold is HYBRID's split point: pairs sharing at most this many
// data items are scanned INDEX-style, the rest with BOUND+. Section IV:
// below it the bound bookkeeping costs more than the multiplies it saves,
// and the paper "determined 16 empirically". It is a constant because a
// sweep found nothing to tune (PERFORMANCE.md, "The share threshold"): a
// full run costs the same from 1 to 64 on Stock and Book-CS alike, and the
// only setting that differs, bounds off, is not HYBRID but INDEX.
const shareThreshold = 16

// mode selects how the shared scan treats each pair.
type mode int

const (
	modeIndex     mode = iota // no bounds: exact accumulation (Section III)
	modeBound                 // bounds checked on every shared entry (Section IV-A)
	modeBoundPlus             // bounds with lazy recomputation timers (Section IV-B)
	modeHybrid                // INDEX for small-overlap pairs, BOUND+ otherwise
	// modeFreeze is HYBRID on INCREMENTAL's last warm round: a pair is
	// decided, and its decision-point scores latched, exactly as under
	// modeHybrid, but its evidence keeps accumulating to the end of the
	// scan, so the same scan also yields the exact base scores.
	modeFreeze
)

// Index is the INDEX algorithm of Section III: scan the inverted index in
// decreasing contribution order, instantiate state only for pairs that
// co-occur outside the tail set E̅, accumulate exact scores, and correct
// for different-value items at the end. It produces exactly the PAIRWISE
// decisions.
type Index struct {
	Params bayes.Params
	Opts   Options
	cache  structCache
}

// Name implements Detector.
func (d *Index) Name() string { return "INDEX" }

// Reset drops the cross-round structural cache.
func (d *Index) Reset() { d.cache = structCache{} }

// DetectRound implements Detector.
func (d *Index) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result {
	return scanRound(ds, st, d.Params, d.Opts, modeIndex, &d.cache)
}

// Bound is the BOUND algorithm of Section IV-A: like INDEX, but it
// maintains per-pair minimum and maximum score bounds (Eq. 9–10) on every
// shared entry and terminates a pair as soon as the bounds decide copying
// or no-copying.
type Bound struct {
	Params bayes.Params
	Opts   Options
	cache  structCache
}

// Name implements Detector.
func (d *Bound) Name() string { return "BOUND" }

// Reset drops the cross-round structural cache.
func (d *Bound) Reset() { d.cache = structCache{} }

// DetectRound implements Detector.
func (d *Bound) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result {
	return scanRound(ds, st, d.Params, d.Opts, modeBound, &d.cache)
}

// BoundPlus is BOUND+ (Section IV-B): BOUND plus the Tmin/Tmax timers that
// skip bound recomputation until enough new evidence could possibly change
// the outcome.
type BoundPlus struct {
	Params bayes.Params
	Opts   Options
	cache  structCache
}

// Name implements Detector.
func (d *BoundPlus) Name() string { return "BOUND+" }

// Reset drops the cross-round structural cache.
func (d *BoundPlus) Reset() { d.cache = structCache{} }

// DetectRound implements Detector.
func (d *BoundPlus) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result {
	return scanRound(ds, st, d.Params, d.Opts, modeBoundPlus, &d.cache)
}

// Hybrid applies INDEX to pairs that share at most shareThreshold (16)
// data items, where bound bookkeeping costs more than it saves, and
// BOUND+ to the rest (end of Section IV). It is the detector of every
// production round: the library default, and the warm rounds of
// INCREMENTAL.
type Hybrid struct {
	Params bayes.Params
	Opts   Options
	cache  structCache
}

// Name implements Detector.
func (d *Hybrid) Name() string { return "HYBRID" }

// Reset drops the cross-round structural cache.
func (d *Hybrid) Reset() { d.cache = structCache{} }

// DetectRound implements Detector.
func (d *Hybrid) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result {
	return scanRound(ds, st, d.Params, d.Opts, modeHybrid, &d.cache)
}

// pairRec is the scan state of one pair, padded to one 64-byte cache line.
// The kernel visits pairs in provider-pair order — at random as far as the
// slots are concerned — so everything a co-occurrence reads or writes sits
// in the one line it has to fetch anyway; the index, walked in order, is
// what stays structure-of-arrays (PERFORMANCE.md).
//
// The directional evidence lives as a renormalized product mant·2^exp
// (see accum.go).
type pairRec struct {
	mantTo, mantFrom float64
	expTo, expFrom   int32
	l, n0            int32 // shared items l(S1,S2) / observed shared values
	// BOUND+ lazy-recomputation timers.
	minSkipUntil int32 // recompute Cmin when n0 >= this
	maxSkipN1    int32 // recompute Cmax when n(S1) >= this ...
	maxSkipN2    int32 // ... or n(S2) >= this
	flags        byte
	_            [19]byte
}

// pairTab is one shard's pair state, indexed by pair slot and reused across
// rounds, so steady-state rounds allocate nothing here.
type pairTab struct {
	rec []pairRec
	// Scores at the decision point, latched by modeFreeze only (every
	// other mode stops accumulating there, so score() still has them).
	decTo, decFrom []float64
}

const (
	flagUseBounds byte = 1 << iota
	flagDecided
	flagCopying
)

// mulFused multiplies both products in place, under one test, when neither
// needs mulRenorm's attention: nearly every product stays inside the
// mantissa window (a rescale moves 512 bits). Otherwise — a rescale, a huge
// factor, a +Inf mantissa — it leaves the record untouched and reports
// false, and the caller takes both through mulRenorm. It inlines, so the
// kernel's common case makes no call.
func (r *pairRec) mulFused(rTo, rFrom float64) bool {
	mt, mf := r.mantTo*rTo, r.mantFrom*rFrom
	if rTo < rBig && rFrom < rBig &&
		mt >= mantLo && mt < mantHi && mf >= mantLo && mf < mantHi {
		r.mantTo, r.mantFrom = mt, mf
		return true
	}
	return false
}

// big is max(ln C→, ln C←), the part of both bounds that the evidence seen
// so far fixes.
func (r *pairRec) big() float64 {
	return math.Max(logAcc(r.mantTo, r.expTo), logAcc(r.mantFrom, r.expFrom))
}

// score recovers the pair's full log-space scores: the product evidence and
// the different-value correction for the remaining unseen shared items.
func (r *pairRec) score(lnDiff float64) (cTo, cFrom float64) {
	corr := float64(r.l-r.n0) * lnDiff
	cTo = logAcc(r.mantTo, r.expTo) + corr
	cFrom = logAcc(r.mantFrom, r.expFrom) + corr
	return cTo, cFrom
}

// bounds is Section IV once, for both loop nests: the Cmin/Cmax evaluations
// of an undecided pair, BOUND+'s timer tests and the Tmin/Tmax arithmetic
// that arms them. A nest calls step only when a cheap test of its own — the
// entry walk's per co-occurrence, the pair sweep's per position word — says
// a timer may have run out, so the call is off the common path.
type bounds struct {
	thetaCp, thetaInd, lnDiff float64
	timers                    bool // BOUND+ and up: arm Tmin/Tmax after an evaluation
	latch                     bool // modeFreeze: the scan accumulates past the decision
	tab                       *pairTab
	evals                     int64 // bound evaluations made, one computation each
}

func newBounds(p bayes.Params, m mode, tab *pairTab) bounds {
	return bounds{thetaCp: p.ThetaCp(), thetaInd: p.ThetaInd(), lnDiff: p.LnDiff(),
		timers: m >= modeBoundPlus, latch: m == modeFreeze, tab: tab}
}

// decide marks the pair decided at the current scan position; when the
// scan goes on accumulating (modeFreeze) it latches the scores first.
func (b *bounds) decide(slot int32, rec *pairRec, copying byte) {
	rec.flags |= flagDecided | copying
	if b.latch {
		b.tab.decTo[slot], b.tab.decFrom[slot] = rec.score(b.lnDiff)
	}
}

// step is called when an undecided pair has just absorbed the shared value
// at a scan position and a bound may be due: nextM bounds the score of every
// later entry, n1 and n2 are n(S1) and n(S2) there (that entry included),
// cov1 and cov2 the sources' coverages. It evaluates Cmin and Cmax — under
// BOUND+ only those whose timer has run out, which a nest's own, coarser
// test may have let through early — and either decides the pair, reporting
// true, or re-arms the timers of what it evaluated.
//
//copydetect:hotpath
func (b *bounds) step(slot int32, rec *pairRec, nextM float64, n1, n2, cov1, cov2 int32) bool {
	n0, l := rec.n0, rec.l
	// big = max(ln C→, ln C←); computed lazily — at most once a call —
	// because the logs are the expensive part of a bound evaluation.
	big := 0.0
	haveBig := false
	// Cmin (Eq. 9): assume every unseen shared item disagrees.
	if !b.timers || n0 >= rec.minSkipUntil {
		big = rec.big()
		haveBig = true
		cmin := big + float64(l-n0)*b.lnDiff
		b.evals++
		if cmin >= b.thetaCp {
			b.decide(slot, rec, flagCopying)
			return true
		}
		if b.timers {
			// Tmin (Section IV-B): a further shared value adds at most M to
			// big and takes one ln(1−s) out of the correction, raising Cmin
			// by at most M − ln(1−s); θcp is out of reach for the next t
			// shared values.
			t := int32(math.Ceil((b.thetaCp - cmin) / (nextM - b.lnDiff)))
			if t < 1 {
				t = 1
			}
			rec.minSkipUntil = n0 + t
		}
	}
	// Cmax (Eq. 10).
	if !b.timers || n1 >= rec.maxSkipN1 || n2 >= rec.maxSkipN2 {
		if !haveBig {
			big = rec.big()
		}
		h := estimateOverlapSeen(n1, n2, cov1, cov2, l, n0)
		cmax := big + (h-float64(n0))*b.lnDiff + (float64(l)-h)*nextM
		b.evals++
		if cmax < b.thetaInd {
			b.decide(slot, rec, 0)
			return true
		}
		if b.timers {
			// Tmax (Section IV-B). One more scanned shared item moves h to
			// h+1 and takes M out of (l−h)·M. If the values agree it adds at
			// most M to big: Cmax does not rise. If they differ it adds
			// ln(1−s): Cmax falls by M − ln(1−s), the most one item can do.
			// So θind is out of reach until h has grown by t0, and
			// h = max n(S)·l/|D̄(S)| reaches h+t0 when either source has been
			// observed (h+t0)·|D̄(S)|/l times. (Arming at t0+h−n0, the
			// different items needed, never skips on pairs with n0 in the
			// hundreds.)
			t0 := math.Ceil((cmax - b.thetaInd) / (nextM - b.lnDiff))
			reach := (h + t0) / float64(l)
			t1 := int32(math.Ceil(reach * float64(cov1)))
			t2 := int32(math.Ceil(reach * float64(cov2)))
			if t1 <= n1 {
				t1 = n1 + 1
			}
			if t2 <= n2 {
				t2 = n2 + 1
			}
			rec.maxSkipN1, rec.maxSkipN2 = t1, t2
		}
	}
	return false
}

// scanRound runs one round of INDEX/BOUND/BOUND+/HYBRID, parallelized per
// opts.Workers.
func scanRound(ds *dataset.Dataset, st *bayes.State, p bayes.Params, opts Options, m mode, cache *structCache) *Result {
	buildStart := time.Now()
	var rng *rand.Rand
	if opts.Order == index.Random {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	v, pm, lCounts := cache.round(ds, st, p, opts.Order, rng)
	res := &Result{NumSources: ds.NumSources()}
	res.Stats.Rounds = 1
	res.Stats.IndexBuild = time.Since(buildStart)

	detectStart := time.Now()
	scanIndex(ds, st, p, opts, m, v, pm, lCounts, cache, res)
	res.Stats.Detect = time.Since(detectStart)
	return res
}

// makePairTab initializes a shard's pair records in one pass: the neutral
// accumulator, the shared-item count and the per-pair bound mode.
func makePairTab(m mode, lCounts []int32, tab *pairTab) {
	np := len(lCounts)
	tab.rec = grow(tab.rec, np)
	if m == modeFreeze {
		tab.decTo, tab.decFrom = grow(tab.decTo, np), grow(tab.decFrom, np)
	}
	// Pairs sharing more than boundsAbove items check bounds.
	boundsAbove := int32(math.MaxInt32) // modeIndex: none
	switch m {
	case modeBound, modeBoundPlus:
		boundsAbove = -1
	case modeHybrid, modeFreeze:
		boundsAbove = shareThreshold
	}
	for slot, l := range lCounts {
		rec := pairRec{mantTo: 1, mantFrom: 1, l: l}
		if l > boundsAbove {
			rec.flags = flagUseBounds
		}
		tab.rec[slot] = rec
	}
}

// scanShard is the entry walk, the accumulation kernel of the scans whose
// pairs share few items (sweepShard is the other loop nest; sweeps picks): one
// worker's entry scan over the shard of the pair space it owns, into the
// shard's own table. A pair {S1, S2} (S1 < S2, as guaranteed by the sorted
// provider lists) belongs to shard S1 mod workers, so every pair has
// exactly one writer and its state evolves through the same sequence of
// updates — in scan order — as under the sequential scan. nSeen is
// recomputed per worker over all entries, so bound evaluations observe
// the same per-source counts at the same scan positions as sequentially.
// With workers == 1 this IS the sequential scan.
//
// Per entry the kernel hoists everything that does not depend on the pair
// (pv, the false-value term), and per first-provider everything that does
// not depend on the second (the S1 factors of Eq. 3/4, the pair map's row,
// n(S1)), so a co-occurrence is one line of pair state, one division and
// no call: one shared independence probability, one likelihood-ratio
// multiply per direction in place (pairRec.mulFused; accum.go has the
// representation), and — for bounded pairs whose timers have run out —
// the Cmin/Cmax checks (bounds.step), the only place a logarithm is taken.
//
//copydetect:hotpath
func scanShard(ds *dataset.Dataset, st *bayes.State, p bayes.Params, m mode,
	v *index.View, pm *index.PairMap, tab *pairTab, nSeen []int32, w, workers int) Stats {

	var stats Stats
	bd := newBounds(p, m, tab)
	useTimers := bd.timers
	exact := m == modeFreeze

	str := v.S
	accs := st.A
	sSel := p.S
	oneMinusS := 1 - p.S
	invN := 1 / p.N
	recs := tab.rec
	clear(nSeen) // n(S): values observed per source
	for pos, eid := range v.Order {
		// Tail entries (E̅) only ever update pairs that already exist:
		// pairs co-occurring exclusively inside E̅ were never added to pm,
		// so pm.Get below returns -1 for them and they stay pruned.
		provs := str.Prov[str.ProvOff[eid]:str.ProvOff[eid+1]]
		nextM := v.MaxRemaining[pos+1]
		for _, s := range provs {
			nSeen[s]++
		}
		pv := v.P[eid]
		omPv := 1 - pv
		popTerm := omPv * invN
		for x := 0; x < len(provs); x++ {
			s1 := provs[x]
			if !pool.Owns(workers, w, int(s1)) {
				continue // pair owned by another shard
			}
			a1 := accs[s1]
			om1 := 1 - a1
			pvA1 := pv * a1
			popOm1 := popTerm * om1
			provA1 := pvA1 + omPv*om1 // Pr(ΦD(S1)), Eq. 4
			row := pm.Row(s1)         // s1 < every later provider
			seen1 := nSeen[s1]
			for _, s2 := range provs[x+1:] {
				var slot int32
				if row != nil {
					slot = row[s2]
				} else {
					slot = pm.Get(s1, s2)
				}
				if slot < 0 {
					continue // pair shares values only inside the tail set
				}
				rec := &recs[slot]
				fl := rec.flags
				if fl&flagDecided != 0 && !exact {
					continue
				}
				// Contribution of sharing this value (Eq. 6), both
				// directions, as likelihood-ratio multiplies. The
				// independence probability (Eq. 3) is shared.
				a2 := accs[s2]
				om2 := 1 - a2
				ind := pvA1*a2 + popOm1*om2
				rec.n0++
				stats.Computations += 2
				if ind <= 0 {
					// Degenerate accuracies: sharing is proof (the +Inf
					// branch of ContribSame).
					rec.mantTo = math.Inf(1)
					rec.mantFrom = math.Inf(1)
				} else {
					inv := sSel / ind
					rTo := oneMinusS + (pv*a2+omPv*om2)*inv
					rFrom := oneMinusS + provA1*inv
					if !rec.mulFused(rTo, rFrom) {
						rec.mantTo, rec.expTo = mulRenorm(rec.mantTo, rec.expTo, rTo)
						rec.mantFrom, rec.expFrom = mulRenorm(rec.mantFrom, rec.expFrom, rFrom)
					}
				}
				if fl&flagDecided != 0 {
					continue // modeFreeze past the decision point: evidence only
				}
				stats.ValuesExamined++
				if fl&flagUseBounds == 0 {
					continue
				}
				// §IV, unless every timer is still running.
				if useTimers && rec.n0 < rec.minSkipUntil &&
					seen1 < rec.maxSkipN1 && nSeen[s2] < rec.maxSkipN2 {
					continue
				}
				bd.step(slot, rec, nextM, seen1, nSeen[s2],
					int32(ds.Coverage(s1)), int32(ds.Coverage(s2)))
			}
		}
	}
	stats.Computations += bd.evals
	return stats
}

// finalizePairs is step IV of the scan: every undecided pair has now seen
// all its shared values; recover its log-space scores, apply the
// different-value correction and decide. Worker w finalizes the w-th block
// of slots into res.Pairs[slot] — three exponentials a pair is too much for
// one core to do while the rest wait — so Result.Pairs is in slot order
// for every worker count; tabs holds one table per shard, and a pair's
// state is in its owner's.
func finalizePairs(p bayes.Params, m mode, pm *index.PairMap, tabs []pairTab, res *Result) {
	lnDiff := p.LnDiff()
	numPairs := pm.Len()
	res.Stats.PairsConsidered += int64(numPairs)
	res.Pairs = make([]PairResult, numPairs)
	for _, comps := range pool.Shards(len(tabs), func(w int) (comps int64) {
		lo, hi := pool.Block(len(tabs), w, numPairs)
		for slot := lo; slot < hi; slot++ {
			s1, s2 := pm.Key(int32(slot)).Sources()
			tab := &tabs[pool.Owner(len(tabs), int(s1))]
			rec := &tab.rec[slot]
			pr := PairResult{S1: s1, S2: s2}
			pr.CTo, pr.CFrom = rec.score(lnDiff)
			if rec.flags&flagDecided != 0 {
				// Record the pair with the evidence available at its decision
				// point; Cmin is the sound score estimate there.
				if m == modeFreeze {
					pr.CTo, pr.CFrom = tab.decTo[slot], tab.decFrom[slot]
				}
				pr.PrIndep, pr.PrTo, pr.PrFrom = p.Posterior(pr.CTo, pr.CFrom)
				pr.Copying = rec.flags&flagCopying != 0
			} else {
				comps += 2
				pr.Copying, pr.PrIndep, pr.PrTo, pr.PrFrom = decide(p, pr.CTo, pr.CFrom)
			}
			res.Pairs[slot] = pr
		}
		return comps
	}) {
		res.Stats.Computations += comps
	}
}

// estimateOverlapSeen computes h, the estimated number of already-scanned
// data items shared by the pair: max over the two sources of
// n(S)·l(S1,S2)/|D̄(S)| (Section IV-A), clamped into [n0, l]. n1 and n2 are
// n(S1) and n(S2) at the scan position, cov1 and cov2 the sources' coverages.
func estimateOverlapSeen(n1, n2, cov1, cov2, l, n0 int32) float64 {
	lf := float64(l)
	h1 := float64(n1) * lf / float64(cov1)
	h2 := float64(n2) * lf / float64(cov2)
	h := math.Max(h1, h2)
	if h < float64(n0) {
		h = float64(n0)
	}
	if h > lf {
		h = lf
	}
	return h
}
