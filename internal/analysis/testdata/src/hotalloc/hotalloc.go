// Package hotallocfix is the hotalloc fixture: one clean hot root that
// uses only permitted constructs, two hot roots hitting every allocating
// construct between them, and a helper proving calls are followed.
package hotallocfix

import "math"

// hotClean is allocation-free: arithmetic, an allowlisted math call,
// and append into a capacity-reused scratch buffer.
//
//copydetect:hotpath
func hotClean(buf, xs []float64) float64 {
	out := buf[:0]
	for _, x := range xs {
		out = append(out, math.Sqrt(x))
	}
	s := 0.0
	for _, v := range out {
		s += v
	}
	return s
}

// hotDirty trips one diagnostic per allocating construct.
//
//copydetect:hotpath
func hotDirty(xs []float64, n int, name string) string {
	tmp := make([]float64, n)
	var grown []float64
	grown = append(grown, tmp...)
	pair := []int{n, n}
	var sink interface{}
	sink = n
	_, _ = sink, pair
	go spin()
	f := func() int { return n }
	_ = f()
	label := name + "!"
	raw := []byte(label)
	_ = raw
	return scratch(label)
}

// scratch is reachable from hotDirty: its allocation is charged to the
// root that reaches it.
func scratch(s string) string {
	box := &node{val: s}
	return box.val
}

type node struct{ val string }

func spin() {}

// hotHoles boxes through a typed var declaration and stores into a map:
// one diagnostic each.
//
//copydetect:hotpath
func hotHoles(m map[int]int, n int) {
	var boxed interface{} = n
	_ = boxed
	m[n] = n
}
