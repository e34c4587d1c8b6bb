// Package core implements the copy-detection algorithms that are the
// primary contribution of "Scaling up Copy Detection" (Li et al., ICDE
// 2015): the exhaustive PAIRWISE baseline (Section II-B), the
// index-driven INDEX algorithm (Section III), the early-terminating BOUND
// and BOUND+ algorithms (Section IV), their combination HYBRID, and the
// iterative INCREMENTAL algorithm (Section V). All algorithms consume a
// dataset plus the current statistical state (value probabilities and
// source accuracies) and emit, per pair of sources, the accumulated
// directional evidence and a binary copying decision.
//
//copydetect:deterministic
package core

import (
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
)

// PairResult is the outcome of copy detection for one unordered source
// pair S1 < S2.
type PairResult struct {
	S1, S2 dataset.SourceID
	// CTo is the accumulated evidence C→ for the hypothesis S1 → S2
	// (S1 copies from S2); CFrom is C← for S2 → S1. For algorithms with
	// early termination these reflect the evidence accumulated up to the
	// decision point, not necessarily the full sums.
	CTo, CFrom float64
	// PrIndep, PrTo and PrFrom are the posterior probabilities of
	// S1⊥S2, S1→S2 and S2→S1 computed from CTo/CFrom by Eq. (2).
	PrIndep, PrTo, PrFrom float64
	// Copying is the binary decision. For early-terminated pairs it is
	// authoritative even when the (partial-evidence) posterior disagrees.
	Copying bool
}

// Direction renders the likely copying direction of a pair using the
// given source names: "a -> b" when the posterior favors one direction
// by at least 2x, "a <-> b" when the evidence is symmetric.
func (pr PairResult) Direction(names []string) string {
	s1, s2 := names[pr.S1], names[pr.S2]
	switch {
	case pr.PrTo > 2*pr.PrFrom:
		return s1 + " -> " + s2
	case pr.PrFrom > 2*pr.PrTo:
		return s2 + " -> " + s1
	default:
		return s1 + " <-> " + s2
	}
}

// Result is the outcome of one copy-detection round.
type Result struct {
	NumSources int
	// Pairs lists every pair the algorithm instantiated state for. Pairs
	// absent here were pruned and are implicitly non-copying. It is
	// read-only: INCREMENTAL returns one slice from every round that
	// changed nothing, so a write would change other rounds' Results.
	Pairs []PairResult
	Stats Stats
}

// CopyingPairs returns the pairs decided as copying.
func (r *Result) CopyingPairs() []PairResult {
	var out []PairResult
	for _, pr := range r.Pairs {
		if pr.Copying {
			out = append(out, pr)
		}
	}
	return out
}

// CopyingSet returns the set of copying pairs keyed by packed pair id,
// for comparisons between methods.
func (r *Result) CopyingSet() map[int64]bool {
	set := make(map[int64]bool)
	for _, pr := range r.Pairs {
		if pr.Copying {
			set[int64(pr.S1)<<32|int64(uint32(pr.S2))] = true
		}
	}
	return set
}

// Stats aggregates the efficiency measures of Section VI: the number of
// score computations (the unit used in Examples 3.6, 4.2 and Figure 2)
// plus structural and timing counters.
//
// Counting convention: each per-direction contribution-score update is one
// computation; each per-direction end-of-scan different-value adjustment
// is one computation; each evaluation of the Cmin bound pair (both
// directions) is one computation, and likewise for Cmax; the incremental
// algorithm counts per-direction delta applications and per-pair pass
// checks the same way.
type Stats struct {
	Computations    int64
	PairsConsidered int64
	ValuesExamined  int64 // (entry, pair) shared-value visits
	EntriesScanned  int64
	Rounds          int

	IndexBuild time.Duration
	Detect     time.Duration
}

// Add accumulates o into s; durations add, Rounds adds too.
func (s *Stats) Add(o Stats) {
	s.Computations += o.Computations
	s.PairsConsidered += o.PairsConsidered
	s.ValuesExamined += o.ValuesExamined
	s.EntriesScanned += o.EntriesScanned
	s.Rounds += o.Rounds
	s.IndexBuild += o.IndexBuild
	s.Detect += o.Detect
}

// Total returns index-build plus detection time.
func (s Stats) Total() time.Duration { return s.IndexBuild + s.Detect }

// Detector runs one round of copy detection. Implementations may keep
// state across rounds (INCREMENTAL does); round numbers start at 1 and
// must be passed in increasing order for such implementations.
type Detector interface {
	Name() string
	DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *Result
}

// Reseter is implemented by detectors that keep cross-round state and can
// be reset to run a fresh iterative process.
type Reseter interface{ Reset() }

// ResetDetector resets d if it carries cross-round state.
func ResetDetector(d Detector) {
	if r, ok := d.(Reseter); ok {
		r.Reset()
	}
}

// decide applies the three-way decision rule of Section IV-A to exact
// scores: copying when either direction reaches θcp, no-copying when both
// stay below θind, and the posterior of Eq. (2) otherwise. For exact
// scores this coincides with thresholding the posterior at 0.5. lab is
// ln(α/β) (bayes.Params.LnPriorRatio), which a loop over pairs takes once.
func decide(lab, cTo, cFrom float64) (copying bool, prIndep, prTo, prFrom float64) {
	prIndep, prTo, prFrom = bayes.PosteriorAt(lab, cTo, cFrom)
	return prIndep <= 0.5, prIndep, prTo, prFrom
}
