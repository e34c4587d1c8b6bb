package cluster

import (
	"fmt"
	"testing"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty backend accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate backend accepted")
	}
}

func TestRingDeterministic(t *testing.T) {
	backends := []string{"http://b0:1", "http://b1:1", "http://b2:1"}
	r1, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("ds-%d", i)
		if r1.Owner(name) != r2.Owner(name) {
			t.Fatalf("ring not deterministic for %q: %d vs %d", name, r1.Owner(name), r2.Owner(name))
		}
	}
}

func TestRingBalance(t *testing.T) {
	backends := []string{"http://b0:1", "http://b1:1", "http://b2:1"}
	r, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(backends))
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("ds-%d", i))]++
	}
	// With virtualNodes points per backend the split should be within a
	// factor of ~2 of even; this is deterministic (fixed names, fixed
	// hash), so the assertion cannot flake.
	for i, c := range counts {
		if c < n/len(backends)/2 || c > n*2/len(backends) {
			t.Errorf("backend %d owns %d of %d keys — ring badly unbalanced: %v", i, c, n, counts)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	three := []string{"http://b0:1", "http://b1:1", "http://b2:1"}
	four := append(append([]string(nil), three...), "http://b3:1")
	r3, err := NewRing(three)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := NewRing(four)
	if err != nil {
		t.Fatal(err)
	}
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("ds-%d", i)
		o3, o4 := r3.Owner(name), r4.Owner(name)
		if o3 != o4 {
			moved++
			// Consistent hashing: a key may only move *to* the new backend.
			if four[o4] != "http://b3:1" {
				t.Fatalf("key %q moved from %s to %s, not to the new backend", name, three[o3], four[o4])
			}
		}
	}
	// Expected share moved is ~1/4; allow a generous band (deterministic).
	if moved == 0 || moved > total/2 {
		t.Errorf("adding one backend moved %d of %d keys", moved, total)
	}
}

func TestRingAccessors(t *testing.T) {
	backends := []string{"u0", "u1"}
	r, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBackends() != 2 || r.Backend(0) != "u0" || r.Backend(1) != "u1" {
		t.Errorf("accessors: n=%d b0=%q b1=%q", r.NumBackends(), r.Backend(0), r.Backend(1))
	}
}

func TestReplicaSet(t *testing.T) {
	backends := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma", "delta", "ds-0", "ds-1", "ds-2", "load-17"}
	for _, name := range names {
		for n := 1; n <= len(backends)+2; n++ {
			set := r.ReplicaSet(name, n)
			want := n
			if want > len(backends) {
				want = len(backends) // clamped
			}
			if len(set) != want {
				t.Fatalf("ReplicaSet(%q, %d) has %d members, want %d", name, n, len(set), want)
			}
			if set[0] != r.Owner(name) {
				t.Errorf("ReplicaSet(%q, %d)[0] = %d, want Owner %d", name, n, set[0], r.Owner(name))
			}
			seen := map[int]bool{}
			for _, m := range set {
				if m < 0 || m >= len(backends) {
					t.Fatalf("ReplicaSet(%q, %d) member %d out of range", name, n, m)
				}
				if seen[m] {
					t.Fatalf("ReplicaSet(%q, %d) repeats member %d: %v", name, n, m, set)
				}
				seen[m] = true
			}
			// Growing n only appends members; the prefix is stable, so a
			// cluster can raise its replication factor without moving
			// any existing primary or replica.
			if n > 1 {
				prev := r.ReplicaSet(name, n-1)
				for i := range prev {
					if set[i] != prev[i] {
						t.Fatalf("ReplicaSet(%q, %d) prefix %v diverges from ReplicaSet(%q, %d) = %v",
							name, n, set, name, n-1, prev)
					}
				}
			}
		}
		if n := r.ReplicaSet(name, 0); len(n) != 1 || n[0] != r.Owner(name) {
			t.Errorf("ReplicaSet(%q, 0) = %v, want just the owner", name, n)
		}
	}
	// Deterministic across independently built rings (the property every
	// gateway relies on).
	r2, err := NewRing(backends)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		a, b := r.ReplicaSet(name, 2), r2.ReplicaSet(name, 2)
		if a[0] != b[0] || a[1] != b[1] {
			t.Errorf("ReplicaSet(%q, 2) differs across identical rings: %v vs %v", name, a, b)
		}
	}
}

func TestReplicaSetSingleBackend(t *testing.T) {
	r, err := NewRing([]string{"http://only:1"})
	if err != nil {
		t.Fatal(err)
	}
	if set := r.ReplicaSet("anything", 3); len(set) != 1 || set[0] != 0 {
		t.Errorf("ReplicaSet over one backend = %v, want [0]", set)
	}
}
