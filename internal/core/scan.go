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

// Options configures the index-driven single-round algorithms.
type Options struct {
	// Order is the entry processing order (Figure 3); default
	// ByContribution.
	Order index.Order
	// Seed seeds the random entry order when Order == Random.
	Seed int64
	// ShareThreshold is HYBRID's split point: pairs sharing at most this
	// many data items are handled INDEX-style, others with BOUND+. The
	// paper determined 16 empirically. Zero means 16.
	ShareThreshold int
	// Workers parallelizes detection across a goroutine pool (the Section
	// VIII extension): the entry scan of INDEX/BOUND/BOUND+/HYBRID is
	// sharded over the pair space, and INCREMENTAL fans out its base-score
	// computation, entry classification, delta application and pass 1–3
	// re-examination. 0 or 1 is sequential. The value is the shard count,
	// not a core count: results are bit-identical for every value (see
	// internal/pool and DESIGN.md). Each shard walks the index entries
	// itself — a small cost next to the per-pair work it filters them
	// for — and keeps a pair-state table of its own, so memory for pair
	// state grows with the shard count: keep Workers near the core
	// count. Oversubscribing wastes time and memory, it never changes
	// results. CLI entry points default to pool.Auto() (GOMAXPROCS), and
	// the entry points that build a fusion.TruthFinder pass it the same
	// value.
	Workers int
}

func (o Options) shareThreshold() int32 {
	if o.ShareThreshold == 0 {
		return 16
	}
	return int32(o.ShareThreshold)
}

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

// Hybrid applies INDEX to pairs that share at most Opts.ShareThreshold
// data items (where bound bookkeeping costs more than it saves) and
// BOUND+ to the rest (end of Section IV).
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

// pairTab is the per-pair scan state in structure-of-arrays layout: one
// column per field, indexed by pair slot. The kernel touches at most four
// columns per co-occurrence (mantissa + exponent per direction, plus the
// bookkeeping columns for bounded pairs), so a cache line of each column
// serves eight pairs instead of one AoS struct — and the columns are
// reused across rounds, so steady-state rounds allocate nothing here.
//
// The directional evidence lives as a renormalized product mant·2^exp
// (see accum.go); cov holds the coverage-evidence seed separately so it
// can be added back in log space.
type pairTab struct {
	mantTo, mantFrom []float64
	expTo, expFrom   []int32
	cov              []float64
	l, n0            []int32 // shared items l(S1,S2) / observed shared values
	// BOUND+ lazy-recomputation timers.
	minSkipUntil []int32 // recompute Cmin when n0 >= this
	maxSkipN1    []int32 // recompute Cmax when n(S1) >= this ...
	maxSkipN2    []int32 // ... or n(S2) >= this
	flags        []byte
	// Scores at the decision point, latched by modeFreeze only (every
	// other mode stops accumulating there, so score() still has them).
	decTo, decFrom []float64
}

const (
	flagUseBounds byte = 1 << iota
	flagDecided
	flagCopying
)

// reset sizes every column for np pairs (reusing capacity) and restores
// the neutral accumulator state.
func (t *pairTab) reset(np int) {
	t.mantTo, t.mantFrom, t.cov = grow(t.mantTo, np), grow(t.mantFrom, np), grow(t.cov, np)
	t.expTo, t.expFrom = grow(t.expTo, np), grow(t.expFrom, np)
	t.l, t.n0 = grow(t.l, np), grow(t.n0, np)
	t.minSkipUntil = grow(t.minSkipUntil, np)
	t.maxSkipN1, t.maxSkipN2 = grow(t.maxSkipN1, np), grow(t.maxSkipN2, np)
	t.flags = grow(t.flags, np)
	for i := range t.mantTo {
		t.mantTo[i], t.mantFrom[i] = 1, 1
	}
	clear(t.cov)
	clear(t.expTo)
	clear(t.expFrom)
	clear(t.n0)
	clear(t.minSkipUntil)
	clear(t.maxSkipN1)
	clear(t.maxSkipN2)
	clear(t.flags)
}

// decide marks the pair decided at the current scan position; when the
// scan goes on accumulating (modeFreeze) it latches the scores first.
func (t *pairTab) decide(slot int32, copying byte, latch bool, lnDiff float64) {
	t.flags[slot] |= flagDecided | copying
	if latch {
		t.decTo[slot], t.decFrom[slot] = t.score(int(slot), lnDiff)
	}
}

// score recovers one direction's full log-space score: the product
// evidence, the coverage seed and the different-value correction for the
// diff remaining unseen shared items.
func (t *pairTab) score(slot int, lnDiff float64) (cTo, cFrom float64) {
	corr := t.cov[slot] + float64(t.l[slot]-t.n0[slot])*lnDiff
	cTo = logAcc(t.mantTo[slot], t.expTo[slot]) + corr
	cFrom = logAcc(t.mantFrom[slot], t.expFrom[slot]) + corr
	return cTo, cFrom
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

// makePairTab initializes shard w's per-pair scan columns, including the
// coverage-evidence seed (footnote-1 extension, computed only for the
// pairs the shard owns) and the per-pair bound mode.
func makePairTab(ds *dataset.Dataset, p bayes.Params, opts Options, m mode,
	pm *index.PairMap, lCounts []int32, tab *pairTab, w, workers int) {

	shareThreshold := opts.shareThreshold()
	tab.reset(pm.Len())
	copy(tab.l, lCounts)
	if p.CoverageWeight > 0 {
		for slot, key := range pm.Keys() {
			s1, s2 := key.Sources()
			if !pool.Owns(workers, w, int(s1)) {
				continue
			}
			tab.cov[slot] = p.CoverageWeight * p.CoverageLLR(int(lCounts[slot]),
				ds.Coverage(s1), ds.Coverage(s2), ds.NumItems(), p.CoverageCap)
		}
	}
	switch m {
	case modeBound, modeBoundPlus:
		for slot := range tab.flags {
			tab.flags[slot] = flagUseBounds
		}
	case modeFreeze:
		tab.decTo = grow(tab.decTo, len(tab.flags))
		tab.decFrom = grow(tab.decFrom, len(tab.flags))
		fallthrough
	case modeHybrid:
		for slot := range tab.flags {
			if lCounts[slot] > shareThreshold {
				tab.flags[slot] = flagUseBounds
			}
		}
	}
}

// scanShard is the accumulation kernel of the index-driven algorithms: one
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
// (pv, the popularity term), and per first-provider everything that does
// not depend on the second (the S1 factors of Eq. 3/4), so the inner loop
// is a handful of fused multiply-adds per co-occurrence: one shared
// independence probability, one likelihood-ratio multiply per direction
// (accum.go), and — for bounded pairs — the Cmin/Cmax checks, which are
// the only place a logarithm is taken.
//
//copydetect:hotpath
func scanShard(ds *dataset.Dataset, st *bayes.State, p bayes.Params, m mode,
	v *index.View, pm *index.PairMap, tab *pairTab, nSeen []int32, w, workers int) Stats {

	var stats Stats
	thetaCp, thetaInd := p.ThetaCp(), p.ThetaInd()
	lnDiff := p.LnDiff()
	useTimers := m >= modeBoundPlus
	exact := m == modeFreeze

	str := v.S
	accs := st.A
	sSel := p.S
	oneMinusS := 1 - p.S
	invN := 1 / p.N
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
		pop := v.Pop[eid]
		if pop <= 0 {
			pop = invN
		}
		omPv := 1 - pv
		popTerm := omPv * pop
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
			for y := x + 1; y < len(provs); y++ {
				s2 := provs[y]
				slot := pm.Get(s1, s2)
				if slot < 0 {
					continue // pair shares values only inside the tail set
				}
				fl := tab.flags[slot]
				if fl&flagDecided != 0 && !exact {
					continue
				}
				// Contribution of sharing this value (Eq. 6), both
				// directions, as likelihood-ratio multiplies. The
				// independence probability (Eq. 3) is shared.
				a2 := accs[s2]
				om2 := 1 - a2
				ind := pvA1*a2 + popOm1*om2
				tab.n0[slot]++
				stats.Computations += 2
				if ind <= 0 {
					// Degenerate accuracies: sharing is proof (the +Inf
					// branch of ContribSame).
					tab.mantTo[slot] = math.Inf(1)
					tab.mantFrom[slot] = math.Inf(1)
				} else {
					inv := sSel / ind
					tab.mantTo[slot], tab.expTo[slot] = mulRenorm(
						tab.mantTo[slot], tab.expTo[slot], oneMinusS+(pv*a2+omPv*om2)*inv)
					tab.mantFrom[slot], tab.expFrom[slot] = mulRenorm(
						tab.mantFrom[slot], tab.expFrom[slot], oneMinusS+provA1*inv)
				}
				if fl&flagDecided != 0 {
					continue // modeFreeze past the decision point: evidence only
				}
				stats.ValuesExamined++
				if fl&flagUseBounds == 0 {
					continue
				}
				n0 := tab.n0[slot]
				l := tab.l[slot]
				// big = cov + max(ln C→, ln C←); computed lazily — at most
				// once per co-occurrence — because the logs are the
				// expensive part of a bound evaluation.
				big := 0.0
				haveBig := false
				// Cmin (Eq. 9): assume every unseen shared item disagrees.
				if !useTimers || n0 >= tab.minSkipUntil[slot] {
					big = tab.cov[slot] + math.Max(
						logAcc(tab.mantTo[slot], tab.expTo[slot]),
						logAcc(tab.mantFrom[slot], tab.expFrom[slot]))
					haveBig = true
					cmin := big + float64(l-n0)*lnDiff
					stats.Computations++
					if cmin >= thetaCp {
						tab.decide(slot, flagCopying, exact, lnDiff)
						continue
					}
					if useTimers {
						// Tmin (Section IV-B): a further shared value adds at
						// most M to big and takes one ln(1−s) out of the
						// correction, raising Cmin by at most M − ln(1−s);
						// θcp is out of reach for the next t shared values.
						t := int32(math.Ceil((thetaCp - cmin) / (nextM - lnDiff)))
						if t < 1 {
							t = 1
						}
						tab.minSkipUntil[slot] = n0 + t
					}
				}
				// Cmax (Eq. 10).
				if !useTimers || nSeen[s1] >= tab.maxSkipN1[slot] || nSeen[s2] >= tab.maxSkipN2[slot] {
					if !haveBig {
						big = tab.cov[slot] + math.Max(
							logAcc(tab.mantTo[slot], tab.expTo[slot]),
							logAcc(tab.mantFrom[slot], tab.expFrom[slot]))
					}
					h := estimateOverlapSeen(ds, nSeen, s1, s2, l, n0)
					cmax := big + (h-float64(n0))*lnDiff + (float64(l)-h)*nextM
					stats.Computations++
					if cmax < thetaInd {
						tab.decide(slot, 0, exact, lnDiff)
						continue
					}
					if useTimers {
						// Tmax (Section IV-B). One more scanned shared item
						// moves h to h+1 and takes M out of (l−h)·M. If the
						// values agree it adds at most M to big: Cmax does
						// not rise. If they differ it adds ln(1−s): Cmax
						// falls by M − ln(1−s), the most one item can do. So
						// θind is out of reach until h has grown by t0, and
						// h = max n(S)·l/|D̄(S)| reaches h+t0 when either
						// source has been observed (h+t0)·|D̄(S)|/l times.
						// (Arming at t0+h−n0, the different items needed,
						// never skips on pairs with n0 in the hundreds.)
						t0 := math.Ceil((cmax - thetaInd) / (nextM - lnDiff))
						reach := (h + t0) / float64(l)
						n1 := int32(math.Ceil(reach * float64(ds.Coverage(s1))))
						n2 := int32(math.Ceil(reach * float64(ds.Coverage(s2))))
						if n1 <= nSeen[s1] {
							n1 = nSeen[s1] + 1
						}
						if n2 <= nSeen[s2] {
							n2 = nSeen[s2] + 1
						}
						tab.maxSkipN1[slot] = n1
						tab.maxSkipN2[slot] = n2
					}
				}
			}
		}
	}
	return stats
}

// finalizePairs is step IV of the scan: every undecided pair has now seen
// all its shared values; recover its log-space scores, apply the
// different-value correction and decide. It runs on the calling goroutine
// over all pairs in slot order, which fixes the order of Result.Pairs
// independently of the worker count; tabs holds one table per shard, and
// a pair's state is in its owner's.
func finalizePairs(p bayes.Params, m mode, pm *index.PairMap, tabs []pairTab, res *Result) {
	lnDiff := p.LnDiff()
	numPairs := pm.Len()
	res.Stats.PairsConsidered += int64(numPairs)
	res.Pairs = make([]PairResult, 0, numPairs)
	for slot := 0; slot < numPairs; slot++ {
		s1, s2 := pm.Key(int32(slot)).Sources()
		tab := &tabs[pool.Owner(len(tabs), int(s1))]
		cTo, cFrom := tab.score(slot, lnDiff)
		if tab.flags[slot]&flagDecided != 0 {
			// Record the pair with the evidence available at its decision
			// point; Cmin is the sound score estimate there.
			if m == modeFreeze {
				cTo, cFrom = tab.decTo[slot], tab.decFrom[slot]
			}
			prIndep, prTo, prFrom := p.Posterior(cTo, cFrom)
			res.Pairs = append(res.Pairs, PairResult{
				S1: s1, S2: s2, CTo: cTo, CFrom: cFrom,
				PrIndep: prIndep, PrTo: prTo, PrFrom: prFrom,
				Copying: tab.flags[slot]&flagCopying != 0,
			})
			continue
		}
		res.Stats.Computations += 2
		copying, prIndep, prTo, prFrom := decide(p, cTo, cFrom)
		res.Pairs = append(res.Pairs, PairResult{
			S1: s1, S2: s2, CTo: cTo, CFrom: cFrom,
			PrIndep: prIndep, PrTo: prTo, PrFrom: prFrom,
			Copying: copying,
		})
	}
}

// estimateOverlapSeen computes h, the estimated number of already-scanned
// data items shared by the pair: max over the two sources of
// n(S)·l(S1,S2)/|D̄(S)| (Section IV-A), clamped into [n0, l].
func estimateOverlapSeen(ds *dataset.Dataset, nSeen []int32, s1, s2 dataset.SourceID, l, n0 int32) float64 {
	lf := float64(l)
	h1 := float64(nSeen[s1]) * lf / float64(ds.Coverage(s1))
	h2 := float64(nSeen[s2]) * lf / float64(ds.Coverage(s2))
	h := math.Max(h1, h2)
	if h < float64(n0) {
		h = float64(n0)
	}
	if h > lf {
		h = lf
	}
	return h
}
