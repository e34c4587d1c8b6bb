package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	cases := []struct {
		name string
		v    []float64
		p    float64
		want float64
	}{
		{"single", []float64{7}, 80, 7},
		{"median odd", []float64{3, 1, 2}, 50, 2},
		{"median even is the mean of the middle two", []float64{4, 1, 3, 2}, 50, 2.5},
		{"p0 is the minimum", ten, 0, 1},
		{"p100 is the maximum", ten, 100, 10},
		{"p80 of ten interpolates between ranks", ten, 80, 8.2},
		{"p50 of ten", ten, 50, 5.5},
	}
	for _, c := range cases {
		if got := percentile(c.v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.v, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of an empty sample = %v, want NaN", got)
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}
