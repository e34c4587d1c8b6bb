package core

import (
	"math"
	"math/bits"

	"copydetect/internal/bayes"
	"copydetect/internal/bitset"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/pool"
)

// nest names one of the scan's two loop nests over the same co-occurrences:
// the entry walk (scanShard) or the pair sweep (sweepShard). forceNest is the
// test hook that overrides the rule (TestSweepEqualsWalk runs every shape
// through the nest the rule would not pick); only _test.go files set it.
type nest int

const (
	nestByRule nest = iota
	nestWalk
	nestSweep
)

var forceNest nest

// sweeps is the routing rule, decided by the scan's data alone. The sweep
// costs one word-AND per candidate pair and position word, the walk one pair
// lookup and record access per co-occurrence: sweep iff the candidate pairs
// share on average at least as many items as the index has position words,
// and the structure's memory guard allowed per-source bitsets over the
// entries (the position bitsets are those, permuted). Near ratio 1 the two
// nests tie (PERFORMANCE.md), so the constant is not a knob.
func sweeps(lCounts []int32, entries int, bitsFit bool) bool {
	if !bitsFit || len(lCounts) == 0 {
		return false
	}
	var shared int64
	for _, l := range lCounts {
		shared += int64(l)
	}
	return shared >= int64(len(lCounts))*int64(bitset.Words(entries))
}

// chooseSweep applies the rule to a scan, unless a test forces a nest.
func chooseSweep(v *index.View, lCounts []int32) bool {
	if forceNest != nestByRule {
		return forceNest == nestSweep
	}
	return sweeps(lCounts, v.S.NumEntries(), v.S.EntryBits != nil)
}

// posFac is what a co-occurrence at one scan position needs of its entry:
// pv, 1−pv and (1−pv)·pop, the entry-level factors of Eq. 3/4.
type posFac struct{ pv, omPv, popTerm float64 }

// posIndex is the index transposed for the pair sweep, rebuilt per scan into
// reused buffers: per source a bitset over scan positions (bit pos set when
// the source provides v.Order[pos]) with a per-word prefix count, so n(S) at
// a position is one add and one popcount, and the entry factors by position.
type posIndex struct {
	words int
	bits  []uint64 // bits[s*words+w]
	count []int32  // count[s*(words+1)+w]: set bits of source s in words < w
	fac   []posFac // by scan position
}

// build fills the index from a rescored view.
func (px *posIndex) build(v *index.View, numSources int, invN float64) {
	n := len(v.Order)
	words := bitset.Words(n)
	px.words = words
	px.bits = grow(px.bits, numSources*words)
	clear(px.bits)
	px.count = grow(px.count, numSources*(words+1))
	px.fac = grow(px.fac, n)
	for pos, eid := range v.Order {
		pv, pop := v.P[eid], v.Pop[eid]
		if pop <= 0 {
			pop = invN
		}
		omPv := 1 - pv
		px.fac[pos] = posFac{pv, omPv, omPv * pop}
		w, bit := pos>>6, uint64(1)<<(pos&63)
		for _, s := range v.S.Providers(eid) {
			px.bits[int(s)*words+w] |= bit
		}
	}
	for s := 0; s < numSources; s++ {
		count := px.count[s*(words+1) : (s+1)*(words+1)]
		var c int32
		for w, word := range px.bits[s*words : (s+1)*words] {
			count[w] = c
			c += int32(bits.OnesCount64(word))
		}
		count[words] = c
	}
}

// sweepShard is scanShard with the loops exchanged: one worker's sweep over
// the candidate pairs it owns (the same owner, table and records), each
// visiting its shared positions in ascending order — the set bits of the AND
// of the two sources' position words. The factors are the walk's
// expressions on the walk's values in the walk's order, n(S1) and n(S2) at a
// position are prefix + popcount (the visited entry included, as nSeen is),
// and the bounds are the walk's (bounds.step), so every record ends the scan
// bit-identical to the walk's. What changes is where the state lives: a
// pair's accumulators stay in registers for the whole pair and are written
// back once, a decision is a break out of the pair, and the Tmax timer is
// tested once per word — can either count reach its threshold inside this
// word? — with the exact test only inside such words.
//
//copydetect:hotpath
func sweepShard(ds *dataset.Dataset, st *bayes.State, p bayes.Params, m mode,
	v *index.View, pm *index.PairMap, px *posIndex, tab *pairTab, w, workers int) Stats {

	var stats Stats
	bd := newBounds(p, m, tab)
	exact := m == modeFreeze

	accs := st.A
	sSel := p.S
	oneMinusS := 1 - p.S
	recs := tab.rec
	words := px.words
	fac := px.fac
	for slot, key := range pm.Keys() {
		s1, s2 := key.Sources()
		if !pool.Owns(workers, w, int(s1)) {
			continue // pair owned by another shard
		}
		rec := &recs[slot]
		a1, a2 := accs[s1], accs[s2]
		om1, om2 := 1-a1, 1-a2
		cov1, cov2 := int32(ds.Coverage(s1)), int32(ds.Coverage(s2))
		b1 := px.bits[int(s1)*words : (int(s1)+1)*words]
		b2 := px.bits[int(s2)*words : (int(s2)+1)*words]
		c1 := px.count[int(s1)*(words+1) : (int(s1)+1)*(words+1)]
		c2 := px.count[int(s2)*(words+1) : (int(s2)+1)*(words+1)]

		// The record as makePairTab left it: neutral products, timers at 0
		// (so a bounded pair's first shared value evaluates both bounds,
		// and under BOUND, which never arms them, every one does).
		mantTo, mantFrom := rec.mantTo, rec.mantFrom
		expTo, expFrom := rec.expTo, rec.expFrom
		watch := rec.flags&flagUseBounds != 0 // bounded and undecided
		var n0, minSkip, maxSkip1, maxSkip2 int32
		examined := int32(-1) // n0 at the decision; -1 while undecided
	pair:
		for wi := range b1 {
			and := b1[wi] & b2[wi]
			if and == 0 {
				continue
			}
			mayMax := c1[wi+1] >= maxSkip1 || c2[wi+1] >= maxSkip2
			for and != 0 {
				// A run: shared values absorbed with no call in the loop, so
				// that the pair's state stays in registers. It ends with the
				// word, or at the value after which something is due — a
				// renormalisation, or (n0 reaching stop) a timer test; under
				// BOUND, which arms nothing, stop stays 0.
				var tz int
				var rTo, rFrom float64
				renorm, due := false, false
				stop := int32(math.MaxInt32)
				if watch {
					stop = minSkip
					if mayMax {
						stop = 0
					}
				}
				for and != 0 {
					tz = bits.TrailingZeros64(and)
					and &= and - 1
					// Contribution of sharing this value (Eq. 6), both
					// directions.
					f := &fac[wi<<6+tz]
					pv, omPv := f.pv, f.omPv
					pvA1 := pv * a1
					popOm1 := f.popTerm * om1
					ind := pvA1*a2 + popOm1*om2
					n0++
					due = n0 >= stop
					if ind <= 0 {
						// Degenerate accuracies: sharing is proof.
						mantTo, mantFrom = math.Inf(1), math.Inf(1)
					} else {
						inv := sSel / ind
						rTo = oneMinusS + (pv*a2+omPv*om2)*inv
						rFrom = oneMinusS + (pvA1+omPv*om1)*inv
						// pairRec.mulFused on the locals.
						mt, mf := mantTo*rTo, mantFrom*rFrom
						if !(rTo < rBig && rFrom < rBig &&
							mt >= mantLo && mt < mantHi && mf >= mantLo && mf < mantHi) {
							renorm = true
							break
						}
						mantTo, mantFrom = mt, mf
					}
					if due {
						break
					}
				}
				if renorm {
					mantTo, expTo = mulRenorm(mantTo, expTo, rTo)
					mantFrom, expFrom = mulRenorm(mantFrom, expFrom, rFrom)
				}
				if !due {
					continue
				}
				// n(S) at the position, the visited entry included; read by
				// step only where a Tmax threshold is within the word.
				var n1, n2 int32
				if mayMax {
					upTo := uint64(2)<<tz - 1 // bits 0..tz; all ones at tz = 63
					n1 = c1[wi] + int32(bits.OnesCount64(b1[wi]&upTo))
					n2 = c2[wi] + int32(bits.OnesCount64(b2[wi]&upTo))
				}
				if n0 < minSkip && n1 < maxSkip1 && n2 < maxSkip2 {
					continue // a threshold within the word, not yet reached
				}
				rec.mantTo, rec.mantFrom, rec.expTo, rec.expFrom, rec.n0 = mantTo, mantFrom, expTo, expFrom, n0
				if bd.step(int32(slot), rec, v.MaxRemaining[wi<<6+tz+1], n1, n2, cov1, cov2) {
					examined = n0
					if !exact {
						break pair
					}
					watch = false // evidence only from here on
				} else {
					minSkip, maxSkip1, maxSkip2 = rec.minSkipUntil, rec.maxSkipN1, rec.maxSkipN2
					mayMax = c1[wi+1] >= maxSkip1 || c2[wi+1] >= maxSkip2
				}
			}
		}
		rec.mantTo, rec.mantFrom, rec.expTo, rec.expFrom, rec.n0 = mantTo, mantFrom, expTo, expFrom, n0
		stats.Computations += 2 * int64(n0)
		if examined < 0 {
			examined = n0
		}
		stats.ValuesExamined += int64(examined)
	}
	stats.Computations += bd.evals
	return stats
}
