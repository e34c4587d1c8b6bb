package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"copydetect/internal/bayes"
)

// rescoreTwoSorts is View.Rescore as it was before one sort served both
// the scan order and the tail: a stable sort of the ids by decreasing
// score for Order, then a second sort by increasing score, ties by id,
// for the tail. Rescore must reproduce it bit for bit.
func rescoreTwoSorts(v *View, st *bayes.State, p bayes.Params, ord Order, rng *rand.Rand) {
	s := v.S
	n := s.NumEntries()
	for e := 0; e < n; e++ {
		v.accs = v.accs[:0]
		for _, src := range s.Providers(int32(e)) {
			v.accs = append(v.accs, st.A[src])
		}
		v.P[e] = st.P[s.Item[e]][s.Val[e]]
		v.Score[e] = p.MaxEntryScore(v.P[e], v.accs)
	}
	for i := range v.Order {
		v.Order[i] = int32(i)
	}
	switch ord {
	case ByContribution:
		slices.SortStableFunc(v.Order, func(a, b int32) int {
			switch {
			case v.Score[a] > v.Score[b]:
				return -1
			case v.Score[a] < v.Score[b]:
				return 1
			}
			return 0
		})
	case ByProvider:
		slices.SortStableFunc(v.Order, func(a, b int32) int {
			return int(s.ProvOff[a+1]-s.ProvOff[a]) - int(s.ProvOff[b+1]-s.ProvOff[b])
		})
	case Random:
		rng.Shuffle(n, func(i, j int) { v.Order[i], v.Order[j] = v.Order[j], v.Order[i] })
	}
	v.MaxRemaining[n] = 0
	for i := n - 1; i >= 0; i-- {
		v.MaxRemaining[i] = math.Max(v.MaxRemaining[i+1], v.Score[v.Order[i]])
	}
	tailOrder := make([]int32, n)
	for i := range tailOrder {
		tailOrder[i] = int32(i)
	}
	slices.SortFunc(tailOrder, func(a, b int32) int {
		switch {
		case v.Score[a] < v.Score[b]:
			return -1
		case v.Score[a] > v.Score[b]:
			return 1
		}
		return int(a - b)
	})
	clear(v.InTail)
	limit := p.ThetaInd()
	sum := 0.0
	for _, e := range tailOrder {
		sc := v.Score[e]
		if sum+sc >= limit {
			break
		}
		sum += sc
		v.InTail[e] = true
	}
	v.TailScoreSum = sum
}

// TestRescoreMatchesTwoSorts: on random views whose accuracies and value
// probabilities come from three values each, so scores tie in large
// groups, Rescore's single sort gives the two-sort reference's Order,
// InTail, TailScoreSum and MaxRemaining exactly, under every order and
// under a θind that puts none, some or all of the entries in the tail.
func TestRescoreMatchesTwoSorts(t *testing.T) {
	levels := []float64{0.2, 0.5, 0.9}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, st := randomIndexInstance(rng, 3+rng.Intn(10), 5+rng.Intn(80))
		for s := range st.A {
			st.A[s] = levels[rng.Intn(len(levels))]
		}
		for d := range st.P {
			for v := range st.P[d] {
				st.P[d][v] = levels[rng.Intn(len(levels))]
			}
		}
		str := NewStructure(ds)
		got, want := NewView(str), NewView(str)
		for _, alpha := range []float64{0.45, 0.1, 1e-6} {
			p := bayes.Params{Alpha: alpha, S: 0.8, N: 50}
			for _, ord := range []Order{ByContribution, ByProvider, Random} {
				got.Rescore(st, p, ord, rand.New(rand.NewSource(seed)))
				rescoreTwoSorts(want, st, p, ord, rand.New(rand.NewSource(seed)))
				switch {
				case !slices.Equal(got.Order, want.Order):
					t.Fatalf("seed %d α %v %v: Order %v, want %v", seed, alpha, ord, got.Order, want.Order)
				case !slices.Equal(got.InTail, want.InTail):
					t.Fatalf("seed %d α %v %v: InTail %v, want %v", seed, alpha, ord, got.InTail, want.InTail)
				case math.Float64bits(got.TailScoreSum) != math.Float64bits(want.TailScoreSum):
					t.Fatalf("seed %d α %v %v: TailScoreSum %v, want %v", seed, alpha, ord, got.TailScoreSum, want.TailScoreSum)
				}
				for i := range want.MaxRemaining {
					if math.Float64bits(got.MaxRemaining[i]) != math.Float64bits(want.MaxRemaining[i]) {
						t.Fatalf("seed %d α %v %v: MaxRemaining[%d] %v, want %v", seed, alpha, ord, i, got.MaxRemaining[i], want.MaxRemaining[i])
					}
				}
			}
		}
	}
}

// TestDescKeyOrder: the sort key orders scores decreasingly across signs,
// zeros and infinities, and ties −0 with +0 as the float comparison does.
func TestDescKeyOrder(t *testing.T) {
	scores := []float64{math.Inf(1), math.MaxFloat64, 3.5, 1, math.SmallestNonzeroFloat64, 0,
		-math.SmallestNonzeroFloat64, -1, -3.5, -math.MaxFloat64, math.Inf(-1)}
	for i := 1; i < len(scores); i++ {
		if descKey(scores[i-1]) >= descKey(scores[i]) {
			t.Errorf("descKey(%v) >= descKey(%v)", scores[i-1], scores[i])
		}
	}
	if descKey(math.Copysign(0, -1)) != descKey(0) {
		t.Error("descKey(−0) != descKey(+0)")
	}
}
