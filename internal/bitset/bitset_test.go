package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if len(s) != 3 || Words(130) != 3 {
		t.Fatalf("New(130) has %d words, want 3", len(s))
	}
	for _, i := range []int{0, 63, 64, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
}

// TestAndOpsMatchMaps: AndCount must agree with a naive map-based
// intersection on random sets.
func TestAndOpsMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		inA := map[int]bool{}
		inB := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Add(i)
				inA[i] = true
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
				inB[i] = true
			}
		}
		want := 0
		for i := 0; i < n; i++ {
			if inA[i] && inB[i] {
				want++
			}
		}
		if got := AndCount(a, b); got != want {
			t.Fatalf("n=%d AndCount = %d, want %d", n, got, want)
		}
	}
}
