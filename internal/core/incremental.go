package core

import (
	"math"
	"slices"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/pool"
)

// Incremental is the iterative algorithm of Section V. The first
// warmRounds rounds run HYBRID from scratch (the paper found results vary
// too much before round 3 for incremental refinement to pay off). At the
// end of the warm phase it freezes the inverted index — entry set, entry
// order, candidate pairs and shared-item counts never change across
// rounds, because the observations are fixed — snapshots the statistical
// state as the base, and keeps exact per-pair scores against that base.
// They cost no scan of their own: the last warm round reports HYBRID's
// decisions and decision-point scores, bit for bit, but goes on
// accumulating each decided pair's evidence to the end of the scan
// (modeFreeze), and the freeze reads the scan's tables.
//
// Every later round then:
//
//  1. classifies each entry by how much its contribution score M̂ drifted
//     from the base (computed on the base accuracies, as Section V-A
//     prescribes, so value-probability drift is isolated from accuracy
//     drift); entries with |Δ| ≥ ρ_V (adaptiveRhoVInto) are big-change entries, and the
//     largest small change per sign becomes the estimate ∆ρ;
//  2. applies the exact score deltas of big-change entries to the pairs
//     sharing them (pass A, cheap: big entries are few);
//  3. re-examines each pair in up to three passes. Pass 1 challenges the
//     previous decision with the adversarial changes only (big decreases
//     for copying pairs, big increases for no-copying pairs) plus the
//     ∆ρ-bounded worst case of all small changes; pairs whose decision
//     survives settle here. Pass 2 adds the compensating big changes.
//     Pass 3 recomputes the pair exactly with the current state and may
//     flip the decision.
//
// Pass-1 and pass-2 settlements are sound: the estimates bound the exact
// current score adversarially, so a settled decision equals the decision
// exact scores would produce under the θcp/θind thresholds. Only pairs in
// the posterior middle zone always reach pass 3.
//
// Pairs containing a source whose accuracy drifted by ≥ rhoA from the
// base are recomputed exactly (pass 3), as Section V-A requires. When too
// many entries or accuracies drift past their thresholds the detector
// rebases: it recomputes exact base scores against the current state with
// one INDEX-mode scan — the analogue of the paper's periodic
// re-computation rounds.
//
// The passes of a steady-state round allocate nothing: every buffer they
// touch — entry deltas, per-pair delta accumulators, touched lists, pass
// outputs, per-worker scratch — is preallocated when the detector
// prepares, and the worker methods handed to the pool are bound once in
// prepare and fed their per-round inputs through fields. What a round does allocate is
// what it returns, a Result and at most its Pairs, which the caller may keep
// (the serving layer publishes them; TestIncrementalSteadyStateAllocs pins
// the two allocations at Workers <= 1). Pass-3 exact recomputation merges
// the pair's two sorted observation lists.
//
// Each pair's emitted row is built once, at the freeze (prepare): base
// score, its posterior and the base decision, taken straight from the
// freeze scan's own Result for every pair that scan did not decide early.
// A round then emits the base rows with the current decisions and the
// pairs it touched recomputed, into a fresh slice; a round that touched no
// pair and changed no decision, after a round that touched none either,
// returns the slice it last emitted, since its rows would be the same bits.
// The detector never writes into a slice it has returned, so sharing one
// between Results is safe as long as callers treat Result.Pairs as
// read-only, which they must.
//
// Deviation from the paper, recorded in DESIGN.md: base scores are exact
// rather than the Ĉ under-estimates derived from BOUND+ decision points.
// This costs the last warm round the multiplies its bounds would have
// skipped and makes category E̅1 (entries after the decision point)
// empty; in exchange the three passes need no per-pair decision-point
// bookkeeping. The observable
// behaviour the paper measures (Table VIII: per-round speedup and the
// dominance of pass-1 terminations) is preserved.
type Incremental struct {
	Params bayes.Params
	Opts   Options

	prepared bool
	cache    structCache

	// Frozen at prepare time. pm is the cache's candidate pairs as of the
	// base round; basePv and baseScore alias the view's columns, frozen
	// until the next scan rescores the view (a rebase, which re-prepares).
	pm        *index.PairMap
	basePv    []float64 // per-entry value probability at base (the view's P)
	baseScore []float64 // per-entry M̂ at base (the view's Score)
	workers   int

	// The detector's working memory, which Reset keeps.
	incBufs

	// Emission. baseRows are the rows of the freeze (base scores, their
	// posteriors, base decisions), built by prepare and never written
	// after. lastRows is the slice the last round returned and lastDirty
	// whether it carries the deltas of touched pairs; emitPairs is the
	// slice being filled.
	baseRows, lastRows []PairResult
	lastDirty          bool
	emitPairs          []PairResult

	// Round inputs for the worker methods, and those methods bound once in
	// prepare: a method value made per round would allocate (the pool
	// entry points don't inline), so the pool gets the prepared ones and
	// they read their inputs from here.
	roundDS                    *dataset.Dataset
	roundSt                    *bayes.State
	roundRhoV                  float64
	roundDRhoDec, roundDRhoInc float64
	classifyFn, passAFn        func(w int)
	passFn, emitFn             func(w int)

	// LastPass describes the most recent incremental round, and History
	// accumulates one entry per incremental round (Table VIII).
	LastPass PassStats
	History  []PassStats
}

// passOut collects one worker's pass counters and stats, and whether pass 3
// changed a decision.
type passOut struct {
	pass    PassStats
	stats   Stats
	flipped bool
}

// incBufs is the memory an Incremental works in: the frozen per-pair
// scores and decisions, and the per-round scratch, preallocated in prepare
// so that steady-state rounds allocate nothing. prepare sizes and fills or
// clears every buffer, and each round overwrites what it reads, so nothing
// in here survives into another Run but its capacity. The per-pair delta
// columns are cleared through the touched list after each round.
type incBufs struct {
	baseA              []float64 // source accuracies at base
	cTo, cFrom         []float64 // exact full score C→/C← at base (incl. ln(1−s) term)
	copying            []bool
	deltas, absDeltas  []float64
	sigBuf             []float64
	bigEntries         []int32
	bigAcc             []bool
	dNegTo, dPosTo     []float64
	dNegFrom, dPosFrom []float64
	smallDec, smallInc []int32 // per-pair counts of small-change shared entries
	touched            []int32
	isTouched          []bool
	accBufs            [][]float64
	touchedShards      [][]int32
	passAComps         []int64
	passOuts           []passOut
}

// PassStats reports where pairs terminated during an incremental round.
type PassStats struct {
	SettledPass1 int
	SettledPass2 int
	SettledPass3 int // includes exact recomputations forced by accuracy drift
	BigEntries   int
	Rebased      bool
}

// The paper's Section V-A settings, which nothing overrides: the number of
// initial HYBRID rounds before the index is frozen, and the big-change
// threshold on source accuracies.
const (
	warmRounds = 2
	rhoA       = 0.2
)

// adaptiveRhoVInto picks the round's big-change threshold ρ_V on entry
// contribution scores by the paper's adaptive rule (Section V-A): order
// the absolute score changes decreasingly and put the threshold above
// the largest gap between consecutive changes, so the cluster of
// genuinely moved entries is handled exactly and ∆ρ — the largest
// remaining "small" change — stays tight. (The paper's experiments fix
// ρ_V = 1.0, chosen by observing those gaps; the rule needs no such
// per-dataset observation, so it is the only mode.) Changes below the
// noise floor are ignored; with no significant change it returns +Inf
// (nothing is "big").
// buf is scratch (capacity >= len(absDeltas) keeps it allocation-free).
func adaptiveRhoVInto(absDeltas, buf []float64) float64 {
	const noise = 1e-6
	sig := buf[:0]
	for _, d := range absDeltas {
		if d > noise {
			sig = append(sig, d)
		}
	}
	if len(sig) == 0 {
		return math.Inf(1)
	}
	slices.Sort(sig)
	if len(sig) == 1 {
		return sig[0]
	}
	// Walk the significant changes from largest to smallest and return the
	// upper element of the widest adjacent gap (first such gap wins, as in
	// a descending scan).
	bestGap := -1.0
	best := sig[len(sig)-1]
	for j := len(sig) - 1; j >= 1; j-- {
		if gap := sig[j] - sig[j-1]; gap > bestGap {
			bestGap = gap
			best = sig[j]
		}
	}
	return best
}

// Name implements Detector.
func (d *Incremental) Name() string { return "INCREMENTAL" }

// Reset drops all cross-round state so the detector can serve a fresh
// iterative process, and keeps its memory: the working buffers (incBufs)
// and what the structure cache keeps of a dataset (structCache.release).
// A detector reset for every Run therefore computes exactly what a fresh
// one would, and after its first Run allocates little beyond what its
// Results hand out and what a larger dataset outgrows; the serving layer
// runs every round on one such detector.
func (d *Incremental) Reset() {
	d.cache.release()
	*d = Incremental{Params: d.Params, Opts: d.Opts, cache: d.cache, incBufs: d.incBufs}
}

// DetectRound implements Detector.
func (d *Incremental) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result {
	if d.prepared && d.cache.ds != ds {
		// A different dataset under a prepared detector: the frozen index
		// is meaningless for the new data; start over.
		d.Reset()
	}
	if round < warmRounds {
		// The scan refills the cache's candidate pairs, which the frozen
		// pair set aliases.
		d.prepared = false
		return scanRound(ds, st, d.Params, d.Opts, modeHybrid, &d.cache)
	}
	if round == warmRounds {
		// The last warm round decides like HYBRID and accumulates like
		// INDEX, so the freeze reads its base scores out of the scan's
		// own tables.
		res := scanRound(ds, st, d.Params, d.Opts, modeFreeze, &d.cache)
		prepStart := time.Now()
		d.prepare(ds, st, res, &res.Stats)
		res.Stats.IndexBuild += time.Since(prepStart)
		return res
	}
	if !d.prepared {
		// Caller skipped the warm rounds; fall back to preparing now.
		res := &Result{NumSources: ds.NumSources()}
		res.Stats.Rounds = 1
		prepStart := time.Now()
		d.rescan(ds, st, &res.Stats)
		res.Stats.IndexBuild = time.Since(prepStart)
		d.emit(res, false)
		return res
	}
	return d.incrementalRound(ds, st)
}

// grow returns s resized to n elements, reusing capacity when possible.
// Contents are unspecified; callers clear what they need cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, headroom(cap(s), n))
	}
	return s[:n]
}

// growList returns an empty list with capacity at least n.
func growList[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, headroom(cap(s), n))
	}
	return s[:0]
}

// headroom is the capacity to reallocate a buffer of capacity had at when
// it must hold n > had elements: exactly n on a first allocation, so a
// buffer a one-off Run never outgrows carries no headroom, and an eighth
// more when a buffer is outgrown, since a carried buffer of a dataset that
// grows by a few records a round would otherwise be reallocated every
// round.
func headroom(had, n int) int {
	if had == 0 {
		return n
	}
	return n + n/8
}

// rescan is the freeze without a warm scan to take it from — the rebase
// and the skipped-warm-rounds fallback: one exact (INDEX-mode) scan of the
// index against st, then prepare.
func (d *Incremental) rescan(ds *dataset.Dataset, st *bayes.State, stats *Stats) {
	v, pm, l := d.cache.round(ds, st, d.Params, index.ByContribution, nil)
	scanShards(ds, st, d.Params, d.Opts, modeIndex, v, pm, l, &d.cache, stats)
	d.prepare(ds, st, nil, stats)
}

// prepare freezes the index as the cache's last scan left it — view, pair
// set, shared-item counts — and reads the exact base scores and decisions
// of every candidate pair out of that scan's shard tables, which must have
// accumulated to the end (modeFreeze or modeIndex): one accumulation
// kernel in two loop nests (scanShard, sweepShard), whose per-slot products
// are bit-identical for every worker count and either nest. It builds the
// base rows every later round emits from: freeze is the freeze scan's
// Result, whose rows of the pairs it did not decide early already hold the
// exact scores, their posterior and the decision that posterior gives —
// the same bits, since finalizePairs computes them from the same table —
// and nil when the scan was an exact rescan with no Result of its own. It
// also (re)builds every per-round scratch buffer and binds the worker
// methods, so the rounds that follow allocate nothing.
func (d *Incremental) prepare(ds *dataset.Dataset, st *bayes.State, freeze *Result, stats *Stats) {
	p := d.Params
	d.pm = d.cache.pm
	str := d.cache.str
	numPairs := d.pm.Len()
	numEntries := str.NumEntries()

	d.cTo = grow(d.cTo, numPairs)
	d.cFrom = grow(d.cFrom, numPairs)
	d.copying = grow(d.copying, numPairs)
	d.basePv, d.baseScore = d.cache.view.P, d.cache.view.Score
	d.baseA = append(d.baseA[:0], st.A...)
	// A fresh slice: the previous base rows may have been returned.
	rows := make([]PairResult, numPairs)

	workers := pool.Clamp(d.Opts.Workers)
	d.workers = workers
	tabs := d.cache.pairTabs(workers)
	lnDiff, lab := p.LnDiff(), p.LnPriorRatio()
	pool.Run(workers, func(w int) {
		lo, hi := pool.Block(workers, w, numPairs)
		for slot := lo; slot < hi; slot++ {
			s1, s2 := d.pm.Key(int32(slot)).Sources()
			rec := &tabs[pool.Owner(workers, int(s1))].rec[slot]
			pr := PairResult{S1: s1, S2: s2}
			if freeze != nil && rec.flags&flagDecided == 0 {
				pr = freeze.Pairs[slot]
			} else {
				pr.CTo, pr.CFrom = rec.score(lnDiff)
				pr.Copying, pr.PrIndep, pr.PrTo, pr.PrFrom = decide(lab, pr.CTo, pr.CFrom)
			}
			d.cTo[slot], d.cFrom[slot], d.copying[slot] = pr.CTo, pr.CFrom, pr.Copying
			rows[slot] = pr
		}
	})
	stats.Computations += 2 * int64(numPairs)
	d.baseRows, d.lastRows, d.lastDirty = rows, rows, false

	// Per-round scratch, preallocated so steady-state rounds stay
	// allocation-free.
	d.deltas = grow(d.deltas, numEntries)
	d.absDeltas = grow(d.absDeltas, numEntries)
	d.sigBuf = growList(d.sigBuf, numEntries)
	d.bigEntries = growList(d.bigEntries, numEntries)
	d.bigAcc = grow(d.bigAcc, ds.NumSources())
	d.dNegTo = grow(d.dNegTo, numPairs)
	d.dPosTo = grow(d.dPosTo, numPairs)
	d.dNegFrom = grow(d.dNegFrom, numPairs)
	d.dPosFrom = grow(d.dPosFrom, numPairs)
	clear(d.dNegTo)
	clear(d.dPosTo)
	clear(d.dNegFrom)
	clear(d.dPosFrom)
	d.smallDec = grow(d.smallDec, numPairs)
	d.smallInc = grow(d.smallInc, numPairs)
	clear(d.smallDec)
	clear(d.smallInc)
	d.isTouched = grow(d.isTouched, numPairs)
	clear(d.isTouched)
	d.touched = growList(d.touched, numPairs)
	if len(d.accBufs) < workers {
		d.accBufs = make([][]float64, workers)
	}
	for w := range d.accBufs {
		d.accBufs[w] = growList(d.accBufs[w], max(str.MaxProviders, 2))
	}
	if len(d.touchedShards) < workers {
		d.touchedShards = make([][]int32, workers)
	}
	for w := 0; w < workers; w++ {
		d.touchedShards[w] = growList(d.touchedShards[w], numPairs)
	}
	d.passAComps = grow(d.passAComps, workers)
	d.passOuts = grow(d.passOuts, workers)
	if d.History == nil {
		d.History = make([]PassStats, 0, 1024)
	}
	d.classifyFn, d.passAFn = d.classifyWorker, d.passAWorker
	d.passFn, d.emitFn = d.passWorker, d.emitWorker
	d.prepared = true
}

// classifyWorker classifies entries by the drift of M̂ since the base,
// holding provider accuracies at their base values to isolate
// value-probability change. Each entry's drift is a pure function of the
// entry, so workers take one contiguous block of the entry range each
// (pool.Block).
//
//copydetect:hotpath
func (d *Incremental) classifyWorker(w int) {
	p := d.Params
	str := d.cache.str
	st := d.roundSt
	accBuf := d.accBufs[w]
	lo, hi := pool.Block(d.workers, w, str.NumEntries())
	for i := lo; i < hi; i++ {
		accBuf = accBuf[:0]
		for _, s := range str.Providers(int32(i)) {
			accBuf = append(accBuf, d.baseA[s])
		}
		pNew := st.P[str.Item[i]][str.Val[i]]
		d.deltas[i] = p.MaxEntryScore(pNew, accBuf) - d.baseScore[i]
		d.absDeltas[i] = math.Abs(d.deltas[i])
	}
}

// passAWorker is pass A: it scans the drifted entries once. Big-change entries contribute
// exact per-pair deltas, sign-separated per direction; small-change
// entries only bump per-pair counters (|E̅↘| and |E̅↗| of Section
// V-B), so the ∆ρ estimates multiply the true counts rather than the
// pair's total shared values. Entries whose score did not move at all
// (the vast majority after convergence sets in) are skipped. The
// per-pair delta accumulators shard exactly like the entry scan
// (owner = smaller source id mod workers), and each worker collects
// the pairs it touched into a private list merged in shard order. The
// delta columns themselves stay shared, one writer per slot: only the
// pairs of drifted entries are written, and the round's profile does
// not show the lines that costs.
//
//copydetect:hotpath
func (d *Incremental) passAWorker(w int) {
	const noise = 1e-6
	p := d.Params
	str := d.cache.str
	st := d.roundSt
	rhoV := d.roundRhoV
	touched := d.touchedShards[w][:0]
	var comps int64
	numEntries := str.NumEntries()
	for i := 0; i < numEntries; i++ {
		if d.absDeltas[i] <= noise {
			continue
		}
		big := d.absDeltas[i] >= rhoV
		provs := str.Providers(int32(i))
		var pOld, pNew float64
		if big {
			pOld = d.basePv[i]
			pNew = st.P[str.Item[i]][str.Val[i]]
		}
		dec := d.deltas[i] < 0
		for x := 0; x < len(provs); x++ {
			if !pool.Owns(d.workers, w, int(provs[x])) {
				continue
			}
			for y := x + 1; y < len(provs); y++ {
				slot := d.pm.Get(provs[x], provs[y])
				if slot < 0 {
					continue
				}
				if !d.isTouched[slot] {
					d.isTouched[slot] = true
					touched = append(touched, slot)
				}
				if !big {
					if dec {
						d.smallDec[slot]++
					} else {
						d.smallInc[slot]++
					}
					continue
				}
				a1, a2 := d.baseA[provs[x]], d.baseA[provs[y]]
				dTo := p.ContribSameInvN(pNew, a1, a2) - p.ContribSameInvN(pOld, a1, a2)
				dFrom := p.ContribSameInvN(pNew, a2, a1) - p.ContribSameInvN(pOld, a2, a1)
				comps += 2
				if dTo < 0 {
					d.dNegTo[slot] += dTo
				} else {
					d.dPosTo[slot] += dTo
				}
				if dFrom < 0 {
					d.dNegFrom[slot] += dFrom
				} else {
					d.dPosFrom[slot] += dFrom
				}
			}
		}
	}
	d.touchedShards[w] = touched
	d.passAComps[w] = comps
}

// passWorker runs passes 1–3 per pair. Pairs are independent here — each reads only
// its own slot state and writes only its own decision — so workers
// take one contiguous block of the slot range each; pass counters and
// stats are accumulated per worker and summed in shard order.
//
//copydetect:hotpath
func (d *Incremental) passWorker(w int) {
	p := d.Params
	thetaCp, thetaInd := p.ThetaCp(), p.ThetaInd()
	lab := p.LnPriorRatio()
	dRhoDec, dRhoInc := d.roundDRhoDec, d.roundDRhoInc
	out := &d.passOuts[w]
	*out = passOut{}
	lo, hi := pool.Block(d.workers, w, d.pm.Len())
	for slot := lo; slot < hi; slot++ {
		s1, s2 := d.pm.Key(int32(slot)).Sources()
		needExact := d.bigAcc[s1] || d.bigAcc[s2]
		if !needExact {
			decBound := dRhoDec * float64(d.smallDec[slot])
			incBound := dRhoInc * float64(d.smallInc[slot])
			if d.copying[slot] {
				// Pass 1: adversarial view — exact big decreases plus the
				// worst-case estimate of the pair's small decreases.
				cand := math.Max(d.cTo[slot]+d.dNegTo[slot], d.cFrom[slot]+d.dNegFrom[slot]) - decBound
				out.stats.Computations++
				if cand >= thetaCp {
					out.pass.SettledPass1++
					continue
				}
				// Pass 2: compensate with the exact big increases.
				cand = math.Max(d.cTo[slot]+d.dNegTo[slot]+d.dPosTo[slot],
					d.cFrom[slot]+d.dNegFrom[slot]+d.dPosFrom[slot]) - decBound
				out.stats.Computations++
				if cand >= thetaCp {
					out.pass.SettledPass2++
					continue
				}
			} else {
				// Pass 1 for no-copying pairs: adversarial increases.
				cTo := d.cTo[slot] + d.dPosTo[slot] + incBound
				cFrom := d.cFrom[slot] + d.dPosFrom[slot] + incBound
				out.stats.Computations++
				if cTo < thetaInd && cFrom < thetaInd {
					out.pass.SettledPass1++
					continue
				}
				// Pass 2: compensate with the exact big decreases.
				cTo += d.dNegTo[slot]
				cFrom += d.dNegFrom[slot]
				out.stats.Computations++
				if cTo < thetaInd && cFrom < thetaInd {
					out.pass.SettledPass2++
					continue
				}
			}
		}
		// Pass 3: exact recomputation against the current state.
		out.pass.SettledPass3++
		cTo, cFrom := exactPair(p, d.roundDS, d.roundSt, s1, s2, &out.stats)
		if copying, _, _, _ := decide(lab, cTo, cFrom); copying != d.copying[slot] {
			d.copying[slot] = copying
			out.flipped = true
		}
	}
}

// emitWorker recomputes the rows of the round's touched pairs, one block
// of the touched list per worker, into the slice emit is filling. Each
// slot is touched once and owned by one worker, so the fill is the same
// for every worker count.
//
//copydetect:hotpath
func (d *Incremental) emitWorker(w int) {
	lab := d.Params.LnPriorRatio()
	lo, hi := pool.Block(d.workers, w, len(d.touched))
	for _, slot := range d.touched[lo:hi] {
		s1, s2 := d.pm.Key(slot).Sources()
		cTo := d.cTo[slot] + d.dNegTo[slot] + d.dPosTo[slot]
		cFrom := d.cFrom[slot] + d.dNegFrom[slot] + d.dPosFrom[slot]
		prIndep, prTo, prFrom := bayes.PosteriorAt(lab, cTo, cFrom)
		d.emitPairs[slot] = PairResult{
			S1: s1, S2: s2, CTo: cTo, CFrom: cFrom,
			PrIndep: prIndep, PrTo: prTo, PrFrom: prFrom,
			Copying: d.copying[slot],
		}
	}
}

// incrementalRound performs the three-pass refinement of Section V.
func (d *Incremental) incrementalRound(ds *dataset.Dataset, st *bayes.State) *Result {
	p := d.Params
	res := &Result{NumSources: ds.NumSources()}
	res.Stats.Rounds = 1
	start := time.Now()
	d.LastPass = PassStats{}
	d.roundDS, d.roundSt = ds, st

	// Clear the previous round's scratch through its touched list — only
	// the slots it actually dirtied. (The columns stay filled between
	// rounds, so what a round emitted can be re-derived from the detector
	// until the next one starts.)
	for _, slot := range d.touched {
		d.dNegTo[slot], d.dPosTo[slot] = 0, 0
		d.dNegFrom[slot], d.dPosFrom[slot] = 0, 0
		d.smallDec[slot], d.smallInc[slot] = 0, 0
		d.isTouched[slot] = false
	}
	d.touched = d.touched[:0]

	numEntries := d.cache.str.NumEntries()
	pool.Run(d.workers, d.classifyFn)
	res.Stats.Computations += int64(numEntries)

	rhoV := adaptiveRhoVInto(d.absDeltas, d.sigBuf)
	d.roundRhoV = rhoV
	d.bigEntries = d.bigEntries[:0]
	dRhoDec, dRhoInc := 0.0, 0.0
	for i, delta := range d.deltas {
		switch {
		case d.absDeltas[i] >= rhoV:
			d.bigEntries = append(d.bigEntries, int32(i))
		case delta < 0:
			if -delta > dRhoDec {
				dRhoDec = -delta
			}
		case delta > 0:
			if delta > dRhoInc {
				dRhoInc = delta
			}
		}
	}
	d.LastPass.BigEntries = len(d.bigEntries)
	d.roundDRhoDec, d.roundDRhoInc = dRhoDec, dRhoInc

	// Accuracy drift since the base.
	numBigAcc := 0
	for s := range d.bigAcc {
		big := math.Abs(st.A[s]-d.baseA[s]) >= rhoA
		d.bigAcc[s] = big
		if big {
			numBigAcc++
		}
	}

	// Rebase when drift overwhelms the incremental machinery: too many
	// big-change entries, too many drifted accuracies, or "small" changes
	// so large that the ∆ρ bounds cannot settle anything.
	if len(d.bigEntries) > max(64, numEntries/20) ||
		numBigAcc > max(2, ds.NumSources()/50) ||
		dRhoDec+dRhoInc > p.ThetaInd() {
		d.LastPass.Rebased = true
		d.rescan(ds, st, &res.Stats)
		d.LastPass.SettledPass3 = d.pm.Len()
		d.History = append(d.History, d.LastPass)
		d.emit(res, false)
		res.Stats.Detect = time.Since(start)
		return res
	}

	pool.Run(d.workers, d.passAFn)
	for w := 0; w < d.workers; w++ {
		d.touched = append(d.touched, d.touchedShards[w]...)
		res.Stats.Computations += d.passAComps[w]
	}

	pool.Run(d.workers, d.passFn)
	changed := false
	for w := 0; w < d.workers; w++ {
		sh := &d.passOuts[w]
		d.LastPass.SettledPass1 += sh.pass.SettledPass1
		d.LastPass.SettledPass2 += sh.pass.SettledPass2
		d.LastPass.SettledPass3 += sh.pass.SettledPass3
		res.Stats.Add(sh.stats)
		changed = changed || sh.flipped
	}

	d.emit(res, changed)
	d.History = append(d.History, d.LastPass)
	res.Stats.Detect = time.Since(start)
	return res
}

// exactPair recomputes the full scores of one pair with current state —
// the cost the passes try to avoid: merge the two sorted observation lists,
// accumulating each shared value and counting shared items as it goes.
//
//copydetect:hotpath
func exactPair(p bayes.Params, ds *dataset.Dataset, st *bayes.State,
	s1, s2 dataset.SourceID, stats *Stats) (cTo, cFrom float64) {

	a, b := ds.BySource[s1], ds.BySource[s2]
	a1, a2 := st.A[s1], st.A[s2]
	ac := newProdAccum()
	nShared, n0 := 0, 0
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
				n0++
				ac.mulSame(p, st.P[a[i].Item][a[i].Value], a1, a2)
				stats.ValuesExamined++
			}
			stats.Computations += 2
			i++
			j++
		}
	}
	cTo, cFrom = ac.logs()
	corr := float64(nShared-n0) * p.LnDiff()
	return cTo + corr, cFrom + corr
}

// emit fills Result.Pairs. changed reports whether pass 3 changed a
// decision this round. When it did not, the round touched no pair and the
// last emitted slice carries no deltas either, every row would equal that
// slice's, so it is returned again; otherwise the rows are a fresh copy
// of the base rows with the current decisions, and the touched pairs
// recomputed (one block of the touched list per worker).
func (d *Incremental) emit(res *Result, changed bool) {
	numPairs := d.pm.Len()
	res.Stats.PairsConsidered += int64(numPairs)
	if !changed && !d.lastDirty && len(d.touched) == 0 {
		res.Pairs = d.lastRows
		return
	}
	d.emitPairs = make([]PairResult, numPairs)
	for slot, pr := range d.baseRows {
		pr.Copying = d.copying[slot]
		d.emitPairs[slot] = pr
	}
	if len(d.touched) > 0 {
		pool.Run(d.workers, d.emitFn)
	}
	d.lastRows, d.lastDirty = d.emitPairs, len(d.touched) > 0
	res.Pairs = d.emitPairs
}
