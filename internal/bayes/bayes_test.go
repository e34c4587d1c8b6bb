package bayes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exampleParams are the motivating example's priors: α=0.1, s=0.8, n=50.
func exampleParams() Params { return Params{Alpha: 0.1, S: 0.8, N: 50} }

// prIndep is Pr(S1⊥S2|Φ) (Eq. 2) alone.
func prIndep(p Params, cTo, cFrom float64) float64 {
	pi, _, _ := p.Posterior(cTo, cFrom)
	return pi
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f (±%.3f)", what, got, want, tol)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{Alpha: 0, S: 0.8, N: 50},
		{Alpha: 0.5, S: 0.8, N: 50},
		{Alpha: 0.1, S: 0, N: 50},
		{Alpha: 0.1, S: 1, N: 50},
		{Alpha: 0.1, S: 0.8, N: 1},
		{Alpha: -0.1, S: 0.8, N: 50},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v unexpectedly valid", p)
		}
	}
}

func TestThresholds(t *testing.T) {
	p := exampleParams()
	// Example 4.2: θcp = ln(.8/.1) = 2.08, θind = ln(.8/.2) = 1.39.
	approx(t, p.ThetaCp(), 2.079, 0.005, "θcp")
	approx(t, p.ThetaInd(), 1.386, 0.005, "θind")
	approx(t, p.Beta(), 0.8, 1e-12, "β")
	// Example 3.6 / 4.2 use ln(1−s) ≈ −1.6.
	approx(t, p.LnDiff(), -1.609, 0.005, "ln(1−s)")
}

// TestContribSameExample21 reproduces Example 2.1: sources S2 and S3 with
// accuracy 0.2 sharing NJ.Atlantic (probability .01) contribute 3.89.
func TestContribSameExample21(t *testing.T) {
	p := exampleParams()
	approx(t, p.ContribSame(0.01, 0.2, 0.2), 3.89, 0.01, "C→(NJ.Atlantic)")
	// The remaining contributions of the (S2,S3) walk-through:
	// AZ.Phoenix (p=.95) ≈ 1.6, NY.NewYork (p=.02) ≈ 3.86,
	// FL.Miami (p=.03) ≈ 3.83.
	approx(t, p.ContribSame(0.95, 0.2, 0.2), 1.60, 0.01, "C→(AZ.Phoenix)")
	approx(t, p.ContribSame(0.02, 0.2, 0.2), 3.86, 0.01, "C→(NY.NewYork)")
	approx(t, p.ContribSame(0.03, 0.2, 0.2), 3.83, 0.01, "C→(FL.Miami)")
}

// TestPosteriorExample21 checks both posterior computations of Ex. 2.1:
// C→=C←=11.58 gives Pr(⊥)≈.00004 and C→=C←=.04 gives ≈.79.
func TestPosteriorExample21(t *testing.T) {
	p := exampleParams()
	pi := prIndep(p, 11.58, 11.58)
	if pi > 0.0001 || pi < 0.00001 {
		t.Errorf("PrIndep(11.58, 11.58) = %.6f, want ≈ 0.00004", pi)
	}
	approx(t, prIndep(p, 0.04, 0.04), 0.79, 0.01, "PrIndep(.04,.04)")
}

func TestPosteriorSumsToOne(t *testing.T) {
	p := DefaultParams()
	for _, c := range [][2]float64{{0, 0}, {5, -3}, {-10, -10}, {100, 200}, {1e4, 1e4}} {
		pi, pt, pf := p.Posterior(c[0], c[1])
		if s := pi + pt + pf; math.Abs(s-1) > 1e-9 {
			t.Errorf("posterior(%v) sums to %v", c, s)
		}
		if pi < 0 || pt < 0 || pf < 0 {
			t.Errorf("posterior(%v) has negative component: %v %v %v", c, pi, pt, pf)
		}
	}
}

func TestPosteriorOverflow(t *testing.T) {
	p := DefaultParams()
	pi, pt, _ := p.Posterior(5000, 100)
	if pi != 0 {
		t.Errorf("PrIndep with huge C→ = %v, want 0", pi)
	}
	if math.Abs(pt-1) > 1e-9 {
		t.Errorf("PrTo with dominant C→ = %v, want 1", pt)
	}
	pi, _, _ = p.Posterior(math.Inf(1), 0)
	if math.IsNaN(pi) {
		t.Error("posterior with +Inf score is NaN")
	}
}

func TestPosteriorMonotone(t *testing.T) {
	p := DefaultParams()
	prev := 1.0
	for c := -5.0; c <= 20; c += 0.5 {
		pi := prIndep(p, c, -2)
		if pi > prev+1e-12 {
			t.Fatalf("PrIndep not monotone: PrIndep(%v)=%v > prev %v", c, pi, prev)
		}
		prev = pi
	}
}

// TestPosteriorThresholdConsistency verifies the threshold derivations of
// Section IV-A: C reaching θcp in one direction forces Pr(⊥) ≤ .5, and
// both directions below θind force Pr(⊥) > .5.
func TestPosteriorThresholdConsistency(t *testing.T) {
	for _, p := range []Params{exampleParams(), DefaultParams(), {Alpha: 0.05, S: 0.5, N: 10}} {
		cp, ind := p.ThetaCp(), p.ThetaInd()
		if pi := prIndep(p, cp, -100); pi > 0.5+1e-12 {
			t.Errorf("α=%v: PrIndep(θcp, −∞) = %v > .5", p.Alpha, pi)
		}
		eps := 1e-9
		if pi := prIndep(p, ind-eps, ind-eps); pi <= 0.5 {
			t.Errorf("α=%v: PrIndep(θind−, θind−) = %v ≤ .5", p.Alpha, pi)
		}
	}
}

// TestContribSameNonNegative: sharing a value is never evidence against
// copying (Section II-A: C→(D) is positive when values are shared).
func TestContribSameNonNegative(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		pv := rng.Float64()
		a1 := 0.01 + 0.98*rng.Float64()
		a2 := 0.01 + 0.98*rng.Float64()
		if c := p.ContribSame(pv, a1, a2); c < -1e-12 {
			t.Fatalf("ContribSame(%v, %v, %v) = %v < 0", pv, a1, a2, c)
		}
	}
}

// TestContribDecreasesWithPv: sharing a likelier-false value is stronger
// evidence.
func TestContribDecreasesWithPv(t *testing.T) {
	p := DefaultParams()
	prev := math.Inf(1)
	for pv := 0.01; pv < 1; pv += 0.01 {
		c := p.ContribSame(pv, 0.6, 0.7)
		if c > prev+1e-12 {
			t.Fatalf("ContribSame not decreasing in pv at %v", pv)
		}
		prev = c
	}
}

func TestContribSameDegenerate(t *testing.T) {
	p := DefaultParams()
	if c := p.ContribSame(0, 1, 1); !math.IsInf(c, 1) {
		t.Errorf("impossible independent observation should give +Inf, got %v", c)
	}
	if c := p.ContribSameInvN(0, 1, 1); !math.IsInf(c, 1) {
		t.Errorf("ContribSameInvN: impossible independent observation should give +Inf, got %v", c)
	}
}

// TestContribSameInvNMatchesContribSame: the ×(1/n) form is Eq. (6) too; it
// may differ from the ÷n form in rounding only.
func TestContribSameInvNMatchesContribSame(t *testing.T) {
	p := DefaultParams()
	for _, pv := range []float64{0, 0.01, 0.3, 0.9, 1} {
		for _, a := range [][2]float64{{0.6, 0.7}, {0.1, 0.95}, {0.5, 0.5}} {
			approx(t, p.ContribSameInvN(pv, a[0], a[1]), p.ContribSame(pv, a[0], a[1]), 1e-12, "ContribSameInvN")
		}
	}
}

// bruteMaxEntryScore maximizes the contribution over all ordered pairs of
// distinct providers — the definition MaxEntryScore must match.
func bruteMaxEntryScore(p Params, pv float64, accs []float64) float64 {
	best := math.Inf(-1)
	for i := range accs {
		for j := range accs {
			if i == j {
				continue
			}
			if c := p.ContribSame(pv, accs[i], accs[j]); c > best {
				best = c
			}
		}
	}
	return best
}

// TestMaxEntryScoreMatchesBruteForce is the property test backing
// Proposition 3.1's implementation.
func TestMaxEntryScoreMatchesBruteForce(t *testing.T) {
	p := exampleParams()
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		accs := make([]float64, n)
		for i := range accs {
			accs[i] = 0.01 + 0.98*r.Float64()
		}
		pv := r.Float64()
		got := p.MaxEntryScore(pv, accs)
		want := bruteMaxEntryScore(p, pv, accs)
		return math.Abs(got-want) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestProp31AgreesOnTableIII verifies the paper-literal three-case rule of
// Proposition 3.1 against the brute-force maximum on the configurations
// appearing in the motivating example's index (Table III).
func TestProp31AgreesOnTableIII(t *testing.T) {
	p := exampleParams()
	cases := []struct {
		pv   float64
		accs []float64
		want float64
	}{
		{0.02, []float64{0.6, 0.01}, 4.59},                   // AZ.Tempe (S5,S6)
		{0.01, []float64{0.2, 0.2, 0.4}, 4.12},               // NJ.Atlantic (S2,S3,S4)
		{0.02, []float64{0.2, 0.4}, 4.05},                    // TX.Houston
		{0.02, []float64{0.2, 0.2, 0.4}, 4.05},               // NY.NewYork
		{0.02, []float64{0.01, 0.25, 0.2}, 3.98},             // TX.Dallas
		{0.04, []float64{0.01, 0.25, 0.2}, 3.97},             // NY.Buffalo
		{0.05, []float64{0.01, 0.25, 0.2}, 3.97},             // FL.PalmBay
		{0.03, []float64{0.2, 0.2}, 3.83},                    // FL.Miami
		{0.97, []float64{0.99, 0.99, 0.25, 0.2, 0.99}, 1.51}, // NJ.Trenton
		{0.92, []float64{0.99, 0.4, 0.6, 0.99}, 0.84},        // FL.Orlando
		{0.94, []float64{0.99, 0.99, 0.6}, 0.43},             // NY.Albany
		{0.96, []float64{0.99, 0.99, 0.6, 0.99}, 0.43},       // TX.Austin
	}
	for _, c := range cases {
		prop := p.MaxEntryScoreProp31(c.pv, c.accs)
		brute := bruteMaxEntryScore(p, c.pv, c.accs)
		fast := p.MaxEntryScore(c.pv, c.accs)
		approx(t, fast, brute, 1e-9, "MaxEntryScore vs brute force")
		approx(t, prop, brute, 1e-9, "Prop 3.1 vs brute force")
		approx(t, fast, c.want, 0.015, "Table III score")
	}
	// AZ.Phoenix: the paper prints 1.62 where the formulas give 1.60; keep
	// it as a looser check so a regression still trips it.
	approx(t, p.MaxEntryScore(0.95, []float64{0.99, 0.99, 0.2, 0.2, 0.4}), 1.62, 0.05, "AZ.Phoenix score")
}

func TestExtremes(t *testing.T) {
	amin, amin2, amax := extremes([]float64{0.5, 0.2, 0.9, 0.2})
	if amin != 0.2 || amin2 != 0.2 || amax != 0.9 {
		t.Errorf("extremes = %v %v %v, want 0.2 0.2 0.9", amin, amin2, amax)
	}
	amin, amin2, amax = extremes([]float64{0.7, 0.3})
	if amin != 0.3 || amin2 != 0.7 || amax != 0.7 {
		t.Errorf("extremes = %v %v %v, want 0.3 0.7 0.7", amin, amin2, amax)
	}
}

func TestStateBasics(t *testing.T) {
	st := NewState([]int{2, 3, 0}, 4, 0.8)
	if len(st.P) != 3 || len(st.A) != 4 {
		t.Fatalf("unexpected state shape")
	}
	if st.P[0][0] != 0.5 || math.Abs(st.P[1][2]-1.0/3) > 1e-12 {
		t.Errorf("value probabilities not uniform: %v", st.P)
	}
	c := st.Clone()
	c.P[0][0] = 0.9
	c.A[0] = 0.1
	if st.P[0][0] == 0.9 || st.A[0] == 0.1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMaxEntryScoreTwoProviders(t *testing.T) {
	p := exampleParams()
	// With exactly two providers the maximum is over the two orderings.
	got := p.MaxEntryScore(0.3, []float64{0.9, 0.2})
	want := math.Max(p.ContribSame(0.3, 0.9, 0.2), p.ContribSame(0.3, 0.2, 0.9))
	approx(t, got, want, 1e-12, "two-provider max")
	if s := p.MaxEntryScore(0.3, []float64{0.9}); s != 0 {
		t.Errorf("single provider should score 0, got %v", s)
	}
}

// posteriorThreeExp is Posterior as it was before PosteriorAt: all three
// exponentials evaluated, ln(α/β) taken on every call. PosteriorAt must
// reproduce it bit for bit.
func posteriorThreeExp(p Params, cTo, cFrom float64) (prIndep, prTo, prFrom float64) {
	switch {
	case math.IsInf(cTo, 1) && math.IsInf(cFrom, 1):
		return 0, 0.5, 0.5
	case math.IsInf(cTo, 1):
		return 0, 1, 0
	case math.IsInf(cFrom, 1):
		return 0, 0, 1
	}
	lab := math.Log(p.Alpha / p.Beta())
	x := lab + cTo
	y := lab + cFrom
	m := math.Max(0, math.Max(x, y))
	eb := math.Exp(0 - m)
	ex := math.Exp(x - m)
	ey := math.Exp(y - m)
	den := eb + ex + ey
	return eb / den, ex / den, ey / den
}

// TestPosteriorAtMatchesThreeExp: skipping the exponential of the largest
// term changes no bit of any output, on random scores spanning ±800 and on
// the special rows — infinities, NaN, signed zeros, x == y, x == 0 and an
// overflowing x (α > β makes ln(α/β) positive). Posterior is PosteriorAt
// at p.LnPriorRatio() and is checked with it.
func TestPosteriorAtMatchesThreeExp(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	params := []Params{exampleParams(), DefaultParams(), {Alpha: 0.4, S: 0.5, N: 10}}
	check := func(p Params, cTo, cFrom float64) {
		t.Helper()
		wi, wt, wf := posteriorThreeExp(p, cTo, cFrom)
		gi, gt, gf := PosteriorAt(p.LnPriorRatio(), cTo, cFrom)
		pi, pt, pf := p.Posterior(cTo, cFrom)
		want := [3]uint64{math.Float64bits(wi), math.Float64bits(wt), math.Float64bits(wf)}
		for _, got := range [][3]float64{{gi, gt, gf}, {pi, pt, pf}} {
			bits := [3]uint64{math.Float64bits(got[0]), math.Float64bits(got[1]), math.Float64bits(got[2])}
			if bits != want {
				t.Fatalf("α=%v Posterior(%v, %v) = %v, want %v (bits %x, want %x)",
					p.Alpha, cTo, cFrom, got, [3]float64{wi, wt, wf}, bits, want)
			}
		}
	}
	for _, p := range params {
		lab := p.LnPriorRatio()
		special := []float64{0, math.Copysign(0, -1), inf, -inf, nan, -lab, lab,
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1}
		for _, a := range special {
			for _, b := range special {
				check(p, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1_000_000; i++ {
		p := params[i%len(params)]
		cTo := (rng.Float64()*2 - 1) * 800
		cFrom := (rng.Float64()*2 - 1) * 800
		switch i % 7 {
		case 0:
			cFrom = cTo // x == y
		case 1:
			cTo = -p.LnPriorRatio() // x == 0
		}
		check(p, cTo, cFrom)
	}
}
