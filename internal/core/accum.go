package core

import (
	"math"

	"copydetect/internal/bayes"
)

// This file implements the renormalized likelihood-ratio product that the
// accumulation kernels use in place of per-co-occurrence logarithms.
//
// The pre-SoA kernel summed, per (entry, pair) co-occurrence and per
// direction, the contribution score of Eq. (6):
//
//	C += ln(1−s + s·Pr(ΦD(S2)) / Pr(ΦD|S1⊥S2))
//
// Profiling a HYBRID round (see PERFORMANCE.md) put ~45% of its CPU time
// inside math.Log — two logarithms per co-occurrence dwarfed everything
// else. But a sum of logs is the log of a product, so the kernel instead
// multiplies the raw likelihood ratios
//
//	r = 1−s + s·prov/ind        (r ≥ 1−s > 0, since prov, ind ≥ 0)
//
// and takes a single logarithm per direction only where a score is
// actually consumed: at a bound evaluation or when the pair is finalized.
//
// A float64 product of thousands of factors can overflow or underflow, so
// the accumulator is kept renormalized as m·2^e with the mantissa m held
// in [2^-512, 2^512). Factors below 2^256 keep m inside (2^-515, 2^768),
// so a single conditional rescale per multiply suffices; the rare larger
// factor (a near-zero independent-observation probability) takes a Frexp
// slow path. The degenerate case ind ≤ 0 — sharing is proof — is
// represented as m = +Inf, exactly mirroring ContribSame's +Inf return.
//
// The recovered log differs from the old running sum only by
// floating-point association (≈ k·2⁻⁵² for k factors), far inside the
// 1e-9 tolerance the cross-algorithm property tests use.

const (
	mantHi    = 0x1p512  // renormalize when the mantissa leaves [mantLo, mantHi)
	mantLo    = 0x1p-512 //
	mantUp    = 0x1p512  // rescale factors (exact powers of two)
	mantDown  = 0x1p-512 //
	mantShift = 512      // exponent bits moved per rescale

	// rBig routes a factor to the Frexp slow path. Below it a multiply
	// cannot overflow: m·r < 2^512 · 2^256 = 2^768 < MaxFloat64, and one
	// rescale returns the mantissa to its window.
	rBig = 0x1p256
)

// mulRenorm multiplies the renormalized accumulator m·2^e by the factor
// r > 0. A +Inf mantissa (degenerate "sharing is proof" evidence)
// propagates unchanged. The scan kernel multiplies in place when both of a
// pair's products stay inside the window and calls this otherwise.
func mulRenorm(m float64, e int32, r float64) (float64, int32) {
	if r < rBig {
		m *= r
		if m < mantHi {
			if m >= mantLo {
				return m, e
			}
			return m * mantUp, e - mantShift
		}
		return m * mantDown, e + mantShift
	}
	// A pathologically large factor.
	if math.IsInf(r, 1) || math.IsInf(m, 1) {
		return math.Inf(1), e
	}
	fr, ex := math.Frexp(r) // r = fr·2^ex, fr ∈ [0.5, 1)
	m *= fr
	e += int32(ex)
	if m < mantLo {
		return m * mantUp, e - mantShift
	}
	return m, e
}

// logAcc recovers ln(m·2^e) — the accumulated evidence in log space, and
// the only place the product representation pays for a logarithm.
func logAcc(m float64, e int32) float64 {
	return math.Log(m) + float64(e)*math.Ln2
}

// prodAccum accumulates both directional products of a single pair for
// the pair-at-a-time paths (INCREMENTAL's exact pass 3); the scan kernel
// keeps the same four fields in its pairRec.
type prodAccum struct {
	mTo, mFrom float64
	eTo, eFrom int32
}

func newProdAccum() prodAccum { return prodAccum{mTo: 1, mFrom: 1} }

// mulSame folds the co-occurrence of one shared value into both
// directions, mirroring two ContribSameInvN calls: a1/a2 are the
// accuracies of the smaller/larger source, mTo accumulates S1→S2 (copier
// S1, so the provided-by-S2 probability is in the numerator) and mFrom
// the reverse.
func (ac *prodAccum) mulSame(p bayes.Params, pv, a1, a2 float64) {
	invN := 1 / p.N
	omPv := 1 - pv
	om1, om2 := 1-a1, 1-a2
	ind := pv*a1*a2 + omPv*om1*om2*invN
	if ind <= 0 {
		ac.mTo, ac.mFrom = math.Inf(1), math.Inf(1)
		return
	}
	inv := p.S / ind
	ac.mTo, ac.eTo = mulRenorm(ac.mTo, ac.eTo, 1-p.S+(pv*a2+omPv*om2)*inv)
	ac.mFrom, ac.eFrom = mulRenorm(ac.mFrom, ac.eFrom, 1-p.S+(pv*a1+omPv*om1)*inv)
}

// logs recovers both directional scores.
func (ac *prodAccum) logs() (cTo, cFrom float64) {
	return logAcc(ac.mTo, ac.eTo), logAcc(ac.mFrom, ac.eFrom)
}
