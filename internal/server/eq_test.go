package server

import (
	"fmt"
	"reflect"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
)

// eqDataset compares dataset content, ignoring the Generation identity
// stamp: every Build/Decode mints a fresh generation by design (it exists
// to distinguish recreated datasets, not to describe their data).
func eqDataset(a, b *dataset.Dataset) bool {
	if a == nil || b == nil {
		return a == b
	}
	ca, cb := *a, *b
	ca.Generation, cb.Generation = 0, 0
	return reflect.DeepEqual(&ca, &cb)
}

// eqPublished is reflect.DeepEqual over Published with the snapshots'
// Generation stamps masked out.
func eqPublished(a, b *Published) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !eqDataset(a.Snapshot, b.Snapshot) {
		return false
	}
	ca, cb := *a, *b
	ca.Snapshot, cb.Snapshot = nil, nil
	return reflect.DeepEqual(&ca, &cb)
}

// diffOutcome compares two outcomes of the iterative process field by
// field with the wall-clock timers masked — the only parts of an Outcome
// that legitimately differ between identical runs — and names the first
// field that differs ("" when none does).
func diffOutcome(g, w *fusion.Outcome) string {
	untimed := func(s core.Stats) core.Stats {
		s.IndexBuild, s.Detect = 0, 0
		return s
	}
	gc, wc := normalizedResult(g.Copy), normalizedResult(w.Copy)
	switch {
	case !reflect.DeepEqual(gc, wc):
		return fmt.Sprintf("Copy: got %d pairs, stats %+v; want %d pairs, stats %+v", len(gc.Pairs), gc.Stats, len(wc.Pairs), wc.Stats)
	case !reflect.DeepEqual(g.Truth, w.Truth):
		return "Truth"
	case !reflect.DeepEqual(g.State, w.State):
		return "State (value probabilities or source accuracies)"
	case g.Rounds != w.Rounds:
		return fmt.Sprintf("Rounds: got %d, want %d", g.Rounds, w.Rounds)
	case untimed(g.TotalStats) != untimed(w.TotalStats):
		return fmt.Sprintf("TotalStats: got %+v, want %+v", untimed(g.TotalStats), untimed(w.TotalStats))
	case len(g.RoundStats) != len(w.RoundStats):
		return "RoundStats length"
	}
	for i := range g.RoundStats {
		if untimed(g.RoundStats[i]) != untimed(w.RoundStats[i]) {
			return fmt.Sprintf("RoundStats[%d]: got %+v, want %+v", i, untimed(g.RoundStats[i]), untimed(w.RoundStats[i]))
		}
	}
	return ""
}
