package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/testkit"
)

// boundEvals is an upper estimate of the Cmin/Cmax evaluations of one scan
// round of INDEX, BOUND, BOUND+ or HYBRID: every computation that is not one
// of the two multiplies of a co-occurrence. It still counts the two
// finalization computations of every pair no bound decided (at most
// 2·pairs); within one algorithm it moves with the bound bookkeeping alone.
// It is not defined on INCREMENTAL's freeze round, whose Computations also
// hold the multiplies past each decision point (which ValuesExamined does
// not count) and prepare's two a pair.
func boundEvals(st core.Stats) int64 {
	return st.Computations - 2*st.ValuesExamined
}

// TestBoundPlusTimersSkip pins what Section IV-B is for: on a Stock-shaped
// dataset (few sources, hundreds of shared values a pair) BOUND+ must
// evaluate its bounds a small fraction as often as BOUND, which evaluates
// them on every co-occurrence. With the Tmax timer armed n0 too early the
// ratio was 0.29; armed at h+t0 it is under 0.02.
func TestBoundPlusTimersSkip(t *testing.T) {
	p := bayes.DefaultParams()
	ds := testkit.Generate(t, testkit.Lookup("stock-1day-x0.05")[0])
	evals := func(det core.Detector) int64 {
		var n int64
		for _, r := range runProcess(ds, p, det).Rounds {
			n += boundEvals(r.Stats)
		}
		return n
	}
	bound := evals(&core.Bound{Params: p})
	plus := evals(&core.BoundPlus{Params: p})
	t.Logf("bound evaluations: BOUND %d, BOUND+ %d (%.3f)", bound, plus, float64(plus)/float64(bound))
	if plus*10 >= bound {
		t.Errorf("BOUND+ evaluated bounds %d times, BOUND %d: the timers skip less than 90%%", plus, bound)
	}
}

// copyingLines renders every round's copying set as one line of sorted
// "s1-s2" pairs — the golden format of testdata/hybrid_copying.golden.
func copyingLines(rounds []*core.Result) []string {
	lines := make([]string, len(rounds))
	for r, res := range rounds {
		var pairs []string
		for _, pr := range res.Pairs {
			if pr.Copying {
				pairs = append(pairs, fmt.Sprintf("%d-%d", pr.S1, pr.S2))
			}
		}
		sort.Strings(pairs)
		lines[r] = strings.Join(pairs, " ")
	}
	return lines
}

// TestHybridCopyingSetsGolden pins HYBRID's decisions across a change that
// moves where BOUND+ pairs are decided: on every preset of the equivalence
// suite, every round's copying set equals the one recorded from the commit
// before the Tmax timer was re-armed (2570c61). Timers only defer a bound
// evaluation, so a decision can move a few entries later but not change;
// the recorded partial scores of early-terminated pairs do move, and this
// is the check that the fusion step does not amplify that into a different
// set. Regenerate (after a deliberate decision change only) with
// UPDATE_GOLDEN=1.
func TestHybridCopyingSetsGolden(t *testing.T) {
	const path = "testdata/hybrid_copying.golden"
	p := bayes.DefaultParams()
	got := make(map[string][]string)
	for _, pr := range paperPresets {
		if pr.Long && testing.Short() {
			continue
		}
		got[pr.ID] = copyingLines(runProcess(testkit.Generate(t, pr), p, &core.Hybrid{Params: p}).Rounds)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for id, lines := range got {
		if !slices.Equal(lines, want[id]) {
			t.Errorf("%s: per-round copying sets differ from the golden:\n  got  %q\n  want %q", id, lines, want[id])
		}
	}
}
