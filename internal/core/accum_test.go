package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// The renormalized product m·2^e of accum.go, pinned at its edges. The
// kernel only ever multiplies by likelihood ratios r >= 1−s (0.2 at the
// default selectivity) and, since the freeze round of INCREMENTAL keeps
// multiplying past a pair's decision point, by thousands of them per
// pair; the contract below is stated for that domain, and the behaviour
// outside it (factors small enough to underflow the mantissa) is pinned
// as what it is rather than promised.

// accValue returns m·2^e exactly.
func accValue(m float64, e int32) *big.Float {
	v := new(big.Float).SetPrec(200).SetFloat64(m)
	return v.SetMantExp(v, int(e))
}

// relErr returns |got−want|/|want|.
func relErr(got, want *big.Float) float64 {
	d := new(big.Float).SetPrec(200).Sub(got, want)
	f, _ := d.Quo(d, want).Float64()
	return math.Abs(f)
}

func inWindow(m float64) bool { return m >= mantLo && m < mantHi }

// TestMulRenormEdges: for every mantissa in the window and every factor
// from 2^-510 up to MaxFloat64 — both sides of the rBig slow-path boundary
// included — one multiply keeps the mantissa in [2^-512, 2^512) and the
// represented value within one rounding (2^-53 relative) of m·r·2^e: the
// rescales are exact powers of two.
func TestMulRenormEdges(t *testing.T) {
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	mants := []float64{mantLo, math.Nextafter(mantLo, 1), 0x1p-256, 0.75, 1, 1.5, 0x1p256, below(mantHi)}
	factors := []float64{0x1p-510, 0x1.8p-300, 0.2, below(1), 1, 5, 0x1p255, below(rBig), rBig,
		math.Nextafter(rBig, math.Inf(1)), 0x1.4p600, math.MaxFloat64}
	for _, m := range mants {
		for _, r := range factors {
			for _, e := range []int32{0, -1536, 1 << 20} {
				gm, ge := mulRenorm(m, e, r)
				if !inWindow(gm) {
					t.Errorf("mulRenorm(%g, %d, %g): mantissa %g left the window", m, e, r, gm)
				}
				want := accValue(m, e)
				want.Mul(want, new(big.Float).SetFloat64(r))
				if err := relErr(accValue(gm, ge), want); err > 0x1p-53 {
					t.Errorf("mulRenorm(%g, %d, %g) = %g·2^%d: relative error %g > 2^-53", m, e, r, gm, ge, err)
				}
			}
		}
	}
}

// TestMulRenormTransfer pins the exponent transfers: 512 bits move exactly
// when the raw product reaches 2^512 (inclusive) or falls below 2^-512
// (exclusive), and the factor's own exponent moves on the slow path.
func TestMulRenormTransfer(t *testing.T) {
	for _, c := range []struct {
		name  string
		m     float64
		e     int32
		r     float64
		wantM float64
		wantE int32
	}{
		{"stays below the top", 0x1p510, 7, 2, 0x1p511, 7},
		{"product == 2^512 transfers up", 0x1p511, 7, 2, 1, 7 + 512},
		{"top of window times 2", math.Nextafter(mantHi, 0), -3, 2, math.Nextafter(mantHi, 0) * 0x1p-511, -3 + 512},
		{"product == 2^-512 stays", 0x1p-511, 7, 0.5, 0x1p-512, 7},
		{"below the bottom transfers down", 0x1p-512, 7, 0.5, 0x1p-1, 7 - 512},
		{"two transfers cancel", 0x1p-1, 7 - 512, 2, 1, 7 - 512},
		{"slow path moves the factor's exponent", 1, 0, rBig, 0.5, 257},
		{"slow path, then one transfer down", mantLo, 0, 0x1p300, 0x1p-1, 301 - 512},
	} {
		gm, ge := mulRenorm(c.m, c.e, c.r)
		if gm != c.wantM || ge != c.wantE {
			t.Errorf("%s: mulRenorm(%g, %d, %g) = (%g, %d), want (%g, %d)", c.name, c.m, c.e, c.r, gm, ge, c.wantM, c.wantE)
		}
	}
}

// TestMulRenormInf: +Inf — "sharing is proof", the ind <= 0 branch of the
// kernel, or an infinite factor — is absorbing on both paths and reads
// back as +Inf whatever the exponent has drifted to.
func TestMulRenormInf(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct{ m, r float64 }{
		{1, inf}, {mantLo, inf}, {inf, inf}, // infinite factor (slow path)
		{inf, 0.2}, {inf, 1}, {inf, 0x1p255}, // infinite mantissa, fast path
		{inf, rBig}, {inf, math.MaxFloat64}, // infinite mantissa, slow path
		{inf, math.SmallestNonzeroFloat64},
	} {
		m, e := c.m, int32(-40)
		for i := 0; i < 3; i++ {
			m, e = mulRenorm(m, e, c.r)
		}
		if !math.IsInf(m, 1) || !math.IsInf(logAcc(m, e), 1) {
			t.Errorf("m=%g r=%g: got mantissa %g, logAcc %g; want +Inf", c.m, c.r, m, logAcc(m, e))
		}
	}
}

// TestPairRecIsOneCacheLine: a co-occurrence reads and writes one line of
// pair state only while the record is exactly 64 bytes; a field added
// later must take its room from the padding, not straddle lines.
func TestPairRecIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(pairRec{}); size != 64 {
		t.Errorf("pairRec is %d bytes, want 64", size)
	}
}

// TestMulFusedMatchesMulRenorm pins the kernel's in-place multiply against
// the arithmetic it stands in for. Over every combination of mantissas and
// factors — both window edges, products that transfer 512 bits either way,
// the rBig boundary and a +Inf mantissa on one direction alone — mulFused
// either reports false and leaves the record untouched (the kernel then
// calls mulRenorm twice, as it always did), or leaves exactly what two
// mulRenorm calls would, bit for bit; and it takes the fast path whenever
// neither direction needs a rescale or the Frexp path.
func TestMulFusedMatchesMulRenorm(t *testing.T) {
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	mants := []float64{mantLo, math.Nextafter(mantLo, 1), 0x1p-511, 0x1p-256, 0.75, 1, 1.5,
		0x1p256, 0x1p510, 0x1p511, below(mantHi), math.Inf(1)}
	factors := []float64{0x1p-510, 0x1.8p-300, 0.2, 0.5, below(1), 1, 2, 5, 0x1p255, below(rBig), rBig,
		math.Nextafter(rBig, math.Inf(1)), 0x1.4p600, math.MaxFloat64, math.Inf(1)}
	const eTo, eFrom = int32(-1536), int32(7)
	fused := 0
	for _, mTo := range mants {
		for _, mFrom := range mants {
			for _, rTo := range factors {
				for _, rFrom := range factors {
					before := pairRec{mantTo: mTo, mantFrom: mFrom, expTo: eTo, expFrom: eFrom,
						l: 40, n0: 3, minSkipUntil: 9, maxSkipN1: 11, maxSkipN2: 12, flags: flagUseBounds}
					want := before
					want.mantTo, want.expTo = mulRenorm(mTo, eTo, rTo)
					want.mantFrom, want.expFrom = mulRenorm(mFrom, eFrom, rFrom)
					plain := rTo < rBig && rFrom < rBig && want.expTo == eTo && want.expFrom == eFrom

					rec := before
					got := rec.mulFused(rTo, rFrom)
					if got != plain {
						t.Errorf("m=(%g, %g) r=(%g, %g): mulFused = %v, want %v", mTo, mFrom, rTo, rFrom, got, plain)
					}
					if got {
						fused++
						if rec != want {
							t.Errorf("m=(%g, %g) r=(%g, %g): fused to (%g·2^%d, %g·2^%d), two mulRenorm give (%g·2^%d, %g·2^%d)",
								mTo, mFrom, rTo, rFrom, rec.mantTo, rec.expTo, rec.mantFrom, rec.expFrom,
								want.mantTo, want.expTo, want.mantFrom, want.expFrom)
						}
					} else if rec != before {
						t.Errorf("m=(%g, %g) r=(%g, %g): mulFused declined but changed the record", mTo, mFrom, rTo, rFrom)
					}
				}
			}
		}
	}
	if fused == 0 {
		t.Error("no combination took the fast path; the test lost its point")
	}
}

// TestMulRenormTinyFactors pins the accumulator outside the kernel's
// domain. Factors below 2^-510 can push the raw product under 2^-1022:
// one transfer no longer brings the mantissa back into the window, a
// denormal product loses bits, and a product below 2^-1075 flushes to
// zero, which logAcc reads as −Inf. No NaN, no panic — and no such factor
// exists in the kernel, whose r is at least 1−s.
func TestMulRenormTinyFactors(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64 // 0⁺ = 2^-1074
	// 0⁺ itself: a power of two, so the value survives exactly, but the
	// mantissa sits below the window...
	m, e := mulRenorm(1, 0, tiny)
	if m != 0x1p-562 || e != -512 {
		t.Errorf("mulRenorm(1, 0, 0⁺) = (%g, %d), want (2^-562, -512)", m, e)
	}
	// ...until large factors bring it back; nothing was lost.
	m, e = mulRenorm(m, e, 0x1p600)
	m, e = mulRenorm(m, e, 0x1p474)
	if !inWindow(m) || accValue(m, e).Cmp(big.NewFloat(1)) != 0 {
		t.Errorf("0⁺ · 2^600 · 2^474 = %g·2^%d, want exactly 1 in the window", m, e)
	}
	// A denormal product that is representable stays exact...
	if m, e := mulRenorm(1, 0, 3*tiny); accValue(m, e).Cmp(accValue(3, -1074)) != 0 {
		t.Errorf("1 · 3·2^-1074 = %g·2^%d, want 3·2^-1074", m, e)
	}
	// ...one that is not is rounded to the denormal grid (4.5 → 4)...
	if m, e := mulRenorm(1.5, 0, 3*tiny); accValue(m, e).Cmp(accValue(4, -1074)) != 0 {
		t.Errorf("1.5 · 3·2^-1074 = %g·2^%d, want 4·2^-1074 (rounded)", m, e)
	}
	// ...and total underflow is a zero mantissa, −Inf in log space.
	m, e = mulRenorm(mantLo, 0, 0x1p-600)
	if m != 0 || !math.IsInf(logAcc(m, e), -1) {
		t.Errorf("2^-512 · 2^-600 = %g·2^%d (log %g), want a flushed mantissa", m, e, logAcc(m, e))
	}
}

// TestLogAccMatchesLogSum: over k factors drawn from the kernel's domain
// (with the occasional factor above rBig) logAcc stays within k·2^-53 —
// half an ulp of relative error per multiply — plus 4 ulps of the total of
// the compensated sum of logarithms it replaces; and it does not matter
// where the transfers fall: started from three representations of 1 whose
// mantissas sit 500 bits apart, the transfers happen at different factors,
// yet the three accumulators end bit-identical once normalized.
func TestLogAccMatchesLogSum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2000 + rng.Intn(8000)
		starts := []struct {
			m float64
			e int32
		}{{1, 0}, {0x1p500, -500}, {0x1p-500, 500}}
		transfers := make([]int, len(starts))
		sum, comp := 0.0, 0.0 // Kahan sum of ln r
		for i := 0; i < k; i++ {
			r := 0.2 + 60*rng.Float64()*rng.Float64()
			switch rng.Intn(400) {
			case 0:
				r = math.Ldexp(1+rng.Float64(), 256+rng.Intn(300)) // slow path
			case 1:
				r = 0.2 // the floor 1−s, repeatedly: drives the mantissa down
			}
			y := math.Log(r) - comp
			s := sum + y
			comp = (s - sum) - y
			sum = s
			for j := range starts {
				before := starts[j].e
				starts[j].m, starts[j].e = mulRenorm(starts[j].m, starts[j].e, r)
				if d := starts[j].e - before; d == mantShift || d == -mantShift {
					transfers[j]++
				}
				if !inWindow(starts[j].m) {
					t.Fatalf("seed %d factor %d: mantissa %g left the window", seed, i, starts[j].m)
				}
			}
		}
		got := logAcc(starts[0].m, starts[0].e)
		ulp := math.Nextafter(math.Abs(sum), math.Inf(1)) - math.Abs(sum)
		if bound := float64(k)*0x1p-53 + 4*ulp; math.Abs(got-sum) > bound {
			t.Errorf("seed %d: logAcc %v vs log-sum %v over %d factors: off by %g > %g", seed, got, sum, k, math.Abs(got-sum), bound)
		}
		if transfers[0] == transfers[1] && transfers[0] == transfers[2] {
			t.Errorf("seed %d: all three starts transferred %d times; the test lost its point", seed, transfers[0])
		}
		f0, x0 := math.Frexp(starts[0].m)
		for j := 1; j < len(starts); j++ {
			f, x := math.Frexp(starts[j].m)
			if f != f0 || x+int(starts[j].e) != x0+int(starts[0].e) {
				t.Errorf("seed %d: start %d ended at %g·2^%d, start 0 at %g·2^%d — not the same number",
					seed, j, starts[j].m, starts[j].e, starts[0].m, starts[0].e)
			}
			if d := math.Abs(logAcc(starts[j].m, starts[j].e) - got); d > 2*ulp {
				t.Errorf("seed %d: logAcc differs by %g (> 2 ulp) between representations", seed, d)
			}
		}
	}
}
