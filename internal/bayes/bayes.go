// Package bayes implements the Bayesian copy-detection analysis of
// Section II of "Scaling up Copy Detection" (Li et al., ICDE 2015),
// originally from Dong et al. (VLDB 2009): per-item contribution scores
// C→(D)/C←(D) (Eq. 3–8), the posterior probability of independence
// Pr(S1⊥S2|Φ) (Eq. 1–2), the decision thresholds θcp and θind of
// Section IV-A, and the maximum entry contribution M̂(D.v) of
// Proposition 3.1.
//
//copydetect:deterministic
package bayes

import (
	"fmt"
	"math"
)

// Params holds the priors of the copying model. The paper treats them as
// inputs (footnote 4); they can be set or refined per Dong et al.
type Params struct {
	// Alpha is the a-priori probability 0 < α < 0.5 that one source copies
	// from another (per direction).
	Alpha float64
	// S is the selectivity of copying: the probability 0 < s < 1 that a
	// copier copies on a particular data item.
	S float64
	// N is the number n > 1 of uniformly distributed false values in each
	// data item's domain.
	N float64
}

// DefaultParams mirrors the configuration of the paper's motivating
// example: α = 0.1, s = 0.8, n = 50 (experiments use n = 100).
func DefaultParams() Params { return Params{Alpha: 0.1, S: 0.8, N: 100} }

// Validate reports whether the parameters are inside the model's domain.
func (p Params) Validate() error {
	if !(p.Alpha > 0 && p.Alpha < 0.5) {
		return fmt.Errorf("bayes: alpha %v out of (0, 0.5)", p.Alpha)
	}
	if !(p.S > 0 && p.S < 1) {
		return fmt.Errorf("bayes: selectivity %v out of (0, 1)", p.S)
	}
	if !(p.N > 1) {
		return fmt.Errorf("bayes: n %v must exceed 1", p.N)
	}
	return nil
}

// Beta returns β = 1 − 2α, the a-priori probability of no copying.
func (p Params) Beta() float64 { return 1 - 2*p.Alpha }

// ThetaCp returns θcp = ln(β/α): if either Cmin direction reaches it,
// Pr(S1⊥S2|Φ) ≤ 0.5 is guaranteed and copying can be concluded.
func (p Params) ThetaCp() float64 { return math.Log(p.Beta() / p.Alpha) }

// ThetaInd returns θind = ln(β/2α): if both Cmax directions stay below it,
// Pr(S1⊥S2|Φ) > 0.5 is guaranteed and no-copying can be concluded.
func (p Params) ThetaInd() float64 { return math.Log(p.Beta() / (2 * p.Alpha)) }

// LnDiff returns ln(1−s), the (negative) contribution of a shared item on
// which the two sources provide different values (Eq. 8).
func (p Params) LnDiff() float64 { return math.Log(1 - p.S) }

// PrIndepSame returns Pr(ΦD | S1⊥S2) for the observation that both sources
// provide the same value v of probability pv (Eq. 3). a1 and a2 are the
// sources' accuracies.
func (p Params) PrIndepSame(pv, a1, a2 float64) float64 {
	return pv*a1*a2 + (1-pv)*(1-a1)*(1-a2)/p.N
}

// PrProvides returns Pr(ΦD(S)): the probability that source S with
// accuracy a provides the observed value v of probability pv (Eq. 4).
func (p Params) PrProvides(pv, a float64) float64 {
	return pv*a + (1-pv)*(1-a)
}

// ContribSame returns C→(D) = ln(1−s + s·Pr(ΦD(S2))/Pr(ΦD|S1⊥S2)) for a
// shared value (Eq. 6), where a1 is the accuracy of the (potential) copier
// S1 and a2 the accuracy of the copied source S2. The result is always
// non-negative and grows as pv shrinks: sharing a false value is strong
// evidence for copying.
func (p Params) ContribSame(pv, a1, a2 float64) float64 {
	ind := p.PrIndepSame(pv, a1, a2)
	if ind <= 0 {
		// Degenerate accuracies (a=1 with pv=0, or a=0 with pv=1) make the
		// independent observation impossible; sharing is then proof.
		return math.Inf(1)
	}
	return math.Log(1 - p.S + p.S*p.PrProvides(pv, a2)/ind)
}

// ContribSameInvN is ContribSame with the false-value term of Eq. (3)
// multiplied by 1/n instead of divided by n. The two agree to the last
// bit or two; PAIRWISE and INCREMENTAL's exact deltas evaluate this form,
// the scan kernels its factored equivalent, and the index's entry scores
// the ÷n form, each pinned bit for bit by internal/core's scores.golden.
func (p Params) ContribSameInvN(pv, a1, a2 float64) float64 {
	ind := pv*a1*a2 + (1-pv)*(1-a1)*(1-a2)*(1/p.N)
	if ind <= 0 {
		return math.Inf(1)
	}
	return math.Log(1 - p.S + p.S*p.PrProvides(pv, a2)/ind)
}

// LnPriorRatio returns ln(α/β), the constant every posterior adds to both
// scores. A loop over many pairs computes it once and calls PosteriorAt.
func (p Params) LnPriorRatio() float64 { return math.Log(p.Alpha / p.Beta()) }

// Posterior turns the accumulated scores C→ and C← into posterior
// probabilities of the three hypotheses (Eq. 2 and its copying analogues):
// prIndep = Pr(S1⊥S2|Φ), prTo = Pr(S1→S2|Φ) (S1 copies from S2), and
// prFrom = Pr(S1←S2|Φ). Computation happens in log space so very large
// scores don't overflow.
func (p Params) Posterior(cTo, cFrom float64) (prIndep, prTo, prFrom float64) {
	return PosteriorAt(p.LnPriorRatio(), cTo, cFrom)
}

// PosteriorAt is Posterior with ln(α/β) supplied by the caller (lab, from
// LnPriorRatio). The three terms 1, e^x and e^y are scaled by e^−m for
// their largest exponent m, and a term whose exponent is m is exp(0) = 1:
// it is not computed, so every output bit is that of evaluating all three
// exponentials. That holds for a finite m only. An m of +Inf (x or y
// overflowed, possible when α > β) makes m − m NaN, and a NaN score makes
// m NaN; both evaluate all three, as Posterior always did.
func PosteriorAt(lab, cTo, cFrom float64) (prIndep, prTo, prFrom float64) {
	switch {
	case math.IsInf(cTo, 1) && math.IsInf(cFrom, 1):
		return 0, 0.5, 0.5
	case math.IsInf(cTo, 1):
		return 0, 1, 0
	case math.IsInf(cFrom, 1):
		return 0, 0, 1
	}
	x := lab + cTo
	y := lab + cFrom
	m := math.Max(0, math.Max(x, y))
	all := !(m <= math.MaxFloat64)
	eb, ex, ey := 1.0, 1.0, 1.0
	if all || m != 0 {
		eb = math.Exp(0 - m)
	}
	if all || x != m {
		ex = math.Exp(x - m)
	}
	if all || y != m {
		ey = math.Exp(y - m)
	}
	den := eb + ex + ey
	return eb / den, ex / den, ey / den
}

// amThreshold returns the pivot accuracy 1 / (1 + n·pv/(1−pv)) of
// Proposition 3.1. For pv = 1 it is 0; for pv = 0 it is 1.
func (p Params) amThreshold(pv float64) float64 {
	if pv >= 1 {
		return 0
	}
	return 1 / (1 + p.N*pv/(1-pv))
}

// MaxEntryScoreProp31 computes M̂(D.v) exactly as Proposition 3.1 states,
// choosing the copier/copied accuracies from the minimum, second minimum
// and maximum accuracies among the providers. accs must have length ≥ 2.
func (p Params) MaxEntryScoreProp31(pv float64, accs []float64) float64 {
	amin, amin2, amax := extremes(accs)
	switch {
	case amin <= p.amThreshold(pv):
		return p.ContribSame(pv, amax, amin) // S1 max accuracy, S2 min accuracy
	case pv < 0.5:
		return p.ContribSame(pv, amin2, amin) // S2 min accuracy, S1 second min
	default:
		return p.ContribSame(pv, amin, amin2) // S1 min accuracy, S2 second min
	}
}

// MaxEntryScore computes M̂(D.v) = max over ordered pairs of distinct
// providers (S1, S2) of the contribution score of sharing D.v. Because the
// score is a ratio of functions affine in each accuracy, the maximum is
// attained at coordinate-wise extremes; it therefore suffices to examine
// ordered pairs drawn from the two smallest and two largest accuracies.
// This matches Proposition 3.1 and stays exact in its boundary cases.
func (p Params) MaxEntryScore(pv float64, accs []float64) float64 {
	if len(accs) < 2 {
		return 0
	}
	// Indices of the two smallest and two largest accuracies.
	i1, i2, j1, j2 := -1, -1, -1, -1 // min, 2nd-min, max, 2nd-max
	var a1, a2, b1, b2 float64       // their accuracies
	for i, a := range accs {
		if i1 == -1 || a < a1 {
			i2, a2 = i1, a1
			i1, a1 = i, a
		} else if i2 == -1 || a < a2 {
			i2, a2 = i, a
		}
		if j1 == -1 || a > b1 {
			j2, b2 = j1, b1
			j1, b1 = i, a
		} else if j2 == -1 || a > b2 {
			j2, b2 = i, a
		}
	}
	// The contribution ln(1−s + s·u) is monotone in the likelihood ratio
	// u = Pr(ΦD(S2))/Pr(ΦD|S1⊥S2), so the argmax over candidate pairs can
	// be found on u directly and only the winner pays for a logarithm —
	// one instead of twelve per entry, and this runs once per entry per
	// round (see PERFORMANCE.md).
	cand := [4]int{i1, i2, j1, j2}
	bestU := math.Inf(-1)
	for _, s1 := range cand {
		for _, s2 := range cand {
			if s1 == s2 {
				continue
			}
			ind := p.PrIndepSame(pv, accs[s1], accs[s2])
			if ind <= 0 {
				return math.Inf(1)
			}
			if u := p.PrProvides(pv, accs[s2]) / ind; u > bestU {
				bestU = u
			}
		}
	}
	return math.Log(1 - p.S + p.S*bestU)
}

// extremes returns the minimum, second minimum and maximum of accs, which
// must have length ≥ 2. Duplicated values are treated as distinct sources,
// so for accs = [.2, .2] both the min and the second min are .2.
func extremes(accs []float64) (amin, amin2, amax float64) {
	amin, amin2 = math.Inf(1), math.Inf(1)
	amax = math.Inf(-1)
	for _, a := range accs {
		if a < amin {
			amin2 = amin
			amin = a
		} else if a < amin2 {
			amin2 = a
		}
		if a > amax {
			amax = a
		}
	}
	return amin, amin2, amax
}
