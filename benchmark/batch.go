package main

import (
	"bytes"
	"fmt"

	"copydetect"
	"copydetect/internal/dataset"
)

// batchOutcome is what the batch cycles hand the layer replay: the
// loaded dataset and the outcomes of the last cycle.
type batchOutcome struct {
	ds           *copydetect.Dataset
	hybrid, incr *copydetect.Outcome
}

// detection is one detect metric: the library call a user makes.
type detection struct {
	metric  string
	algo    copydetect.Algorithm
	workers func(nproc int) int
}

var detections = []detection{
	{"detect_hybrid_s", copydetect.AlgorithmHybrid, func(nproc int) int { return nproc }},
	{"detect_incremental_s", copydetect.AlgorithmIncremental, func(nproc int) int { return nproc }},
	{"detect_seq_s", copydetect.AlgorithmHybrid, func(int) int { return 1 }},
}

// batchCycle is the library user's path, once: ReadJSON of the
// datagen-format bytes, then the full iterative process three ways.
// Output check 1: the outcome digest of an algorithm is the same in
// every lap and for Workers nproc and 1, and INCREMENTAL agrees with
// HYBRID on the copying pairs (F1 >= 0.9).
func (r *run) batchCycle() error {
	var (
		ds  *copydetect.Dataset
		err error
	)
	d := r.tr.time("dataset.ReadJSON", 0, func() {
		ds, err = copydetect.ReadJSON(bytes.NewReader(r.in.doc))
	})
	r.op(err)
	if err != nil {
		return fmt.Errorf("ReadJSON: %w", err)
	}
	r.add("load_s", d.Seconds())
	r.batch.ds = ds

	for _, det := range detections {
		var out *copydetect.Outcome
		d := r.tr.time("copydetect.Detect."+det.metric, 0, func() {
			out = copydetect.DetectWithOptions(ds, det.algo, copydetect.DefaultParams(),
				copydetect.Options{Workers: det.workers(r.nproc)})
		})
		r.add(det.metric, d.Seconds())
		got := outcomeDigest(ds, out)
		var opErr error
		if want, seen := r.batchDigests[det.algo.String()]; seen && got != want {
			opErr = fmt.Errorf("%s: outcome digest %s differs from %s seen earlier (a repeat or the worker count changed the output)",
				det.metric, got[:12], want[:12])
		}
		r.batchDigests[det.algo.String()] = got
		r.op(opErr)
		if det.algo == copydetect.AlgorithmIncremental {
			r.batch.incr = out
		} else {
			r.batch.hybrid = out
		}
	}
	// Two empty pair sets agree (F1 is 0 only by convention then).
	if prf := copydetect.ComparePairs(r.batch.incr.Copy, r.batch.hybrid.Copy); prf.F1 < 0.9 && prf.TestPos+prf.RefPos > 0 {
		r.fail("INCREMENTAL vs HYBRID copying pairs: F1=%.3f, want >= 0.9", prf.F1)
	}
	return nil
}

// outcomeNames renders an in-process outcome the way the wire API
// renders a published round: pairs as "s1|s2|direction", truth by item
// name.
func outcomeNames(ds *dataset.Dataset, out *copydetect.Outcome) (pairs []string, truth map[string]string) {
	for _, pr := range out.Copy.CopyingPairs() {
		pairs = append(pairs, ds.SourceNames[pr.S1]+"|"+ds.SourceNames[pr.S2]+"|"+pr.Direction(ds.SourceNames))
	}
	truth = make(map[string]string)
	for d, v := range out.Truth {
		if v != dataset.NoValue {
			truth[ds.ItemNames[d]] = ds.ValueNames[d][v]
		}
	}
	return pairs, truth
}

func outcomeDigest(ds *dataset.Dataset, out *copydetect.Outcome) string {
	return digest(outcomeNames(ds, out))
}
