package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of v by linear
// interpolation between the two nearest ranks, so percentile(v, 50) is
// the usual median (mean of the middle two for an even count). v need
// not be sorted; NaN for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }
func micros(d time.Duration) float64 { return d.Seconds() * 1e6 }

// allMillis converts a latency sample to milliseconds.
func allMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
