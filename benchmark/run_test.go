package main

import (
	"math"
	"testing"
)

// TestReduce pins how a run's samples become one value: a latency
// metric is the named percentile of all its operations, an end-to-end
// timed call the decile on its better side, everything else the median.
func TestReduce(t *testing.T) {
	r := &run{samples: make(map[string][]float64)}
	// Eleven samples 0..10 in scrambled order: the deciles are 1 and 9,
	// the 80th percentile 8.
	for _, i := range []float64{3, 10, 0, 7, 5, 1, 9, 2, 8, 6, 4} {
		r.add("setup_s", i)
		r.add("detect_seq_s", i/10)
		r.add("ingest_obs_per_s", 100*i)
		r.add("refresh_p50_ms", i)
		r.add("refresh_p80_ms", i)
		r.add("server.append_max_ms", i)
		r.add("server.drain_s", i)
	}
	got := r.reduce()
	for name, want := range map[string]float64{
		"setup_s": 5, "detect_seq_s": 0.1, "ingest_obs_per_s": 900,
		"refresh_p50_ms": 5, "refresh_p80_ms": 8, "server.append_max_ms": 10, "server.drain_s": 5,
	} {
		if math.Abs(got[name].Value-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
		if got[name].N != 11 || len(got[name].Samples) != 11 {
			t.Errorf("%s rests on %d samples and keeps %d, want 11", name, got[name].N, len(got[name].Samples))
		}
	}
	// A pool too large for a result file is counted, not listed.
	r.add("append_p50_ms", make([]float64, keepSamples+1)...)
	if m := r.reduce()["append_p50_ms"]; m.N != keepSamples+1 || m.Samples != nil {
		t.Errorf("large pool: n=%d with %d samples listed, want %d and none", m.N, len(m.Samples), keepSamples+1)
	}
}
