// Package bitset provides the packed bit vectors behind the kernel's
// word-parallel overlap computations. A Set is a []uint64 where bit i of
// word i/64 marks membership of element i; intersections reduce to one
// AND + popcount per 64 elements (math/bits.OnesCount64), which is what
// turns the per-pair shared-item and shared-value counts from list merges
// into a handful of word operations (see PERFORMANCE.md, "SoA and
// bitsets").
//
// Sets are plain slices: zero-value usable after New, no hidden state,
// safe for concurrent readers. Bit order is element order, so a caller
// that walks the set bits of an intersection with TrailingZeros64 (core's
// pair sweep) visits the shared elements in ascending order.
package bitset

import "math/bits"

// Set is a fixed-capacity bit vector over elements [0, 64*len(s)).
type Set []uint64

// New returns a Set able to hold n elements, all initially absent.
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Words returns the number of 64-bit words backing n elements.
func Words(n int) int { return (n + 63) / 64 }

// Add marks element i as present. i must be < 64*len(s).
func (s Set) Add(i int) {
	s[i>>6] |= 1 << (uint(i) & 63)
}

// Has reports whether element i is present.
func (s Set) Has(i int) bool {
	return s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of present elements.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns |a ∩ b| without materializing the intersection: one
// AND + OnesCount64 per word. The sets must have equal length.
func AndCount(a, b Set) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}
