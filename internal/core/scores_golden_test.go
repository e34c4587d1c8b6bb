package core_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/testkit"
)

// TestScoresGolden is the score-bit referee: a full TruthFinder run with
// every detector on the motivating example and on the Stock and Book-CS
// presets of the equivalence suite, every round's pairs recorded as the
// hex bits of CTo, CFrom and PrIndep plus the decision, and the round's
// Stats counters without timers. testdata/hybrid_copying.golden pins
// HYBRID's copying sets only; this file pins every bit a Result carries.
// Regenerate (after a deliberate score change only) with UPDATE_GOLDEN=1.
func TestScoresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// ROADMAP item 3: amd64's math.Log and math.Exp are assembly, so
		// the recorded bits are those of amd64 only.
		t.Skipf("score bits are recorded on amd64 (ROADMAP item 3); GOARCH=%s", runtime.GOARCH)
	}
	const path = "testdata/scores.golden"
	type instance struct {
		id string
		ds *dataset.Dataset
		p  bayes.Params
	}
	motivating, _ := dataset.Motivating()
	instances := []instance{{id: "motivating", ds: motivating, p: bayes.Params{Alpha: 0.1, S: 0.8, N: 50}}}
	for _, pr := range paperPresets {
		if !pr.Long {
			instances = append(instances, instance{id: pr.ID, ds: testkit.Generate(t, pr), p: bayes.DefaultParams()})
		}
	}
	var got bytes.Buffer
	for _, in := range instances {
		for _, name := range []string{"PAIRWISE", "INDEX", "BOUND", "BOUND+", "HYBRID", "INCREMENTAL"} {
			det := equivDetectors(in.p, 1)[name]
			tf := &fusion.TruthFinder{Params: in.p}
			tf.OnRound = func(round int, _ *dataset.Dataset, _ *bayes.State, res *core.Result) {
				s := res.Stats
				fmt.Fprintf(&got, "%s %s round %d: computations %d pairs %d values %d entries %d rounds %d\n",
					in.id, name, round, s.Computations, s.PairsConsidered, s.ValuesExamined, s.EntriesScanned, s.Rounds)
				for _, pr := range res.Pairs {
					fmt.Fprintf(&got, "%d-%d %016x %016x %016x %t\n", pr.S1, pr.S2,
						math.Float64bits(pr.CTo), math.Float64bits(pr.CFrom), math.Float64bits(pr.PrIndep), pr.Copying)
				}
			}
			tf.Run(in.ds, det)
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := testkit.Diff(strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")); d != "" {
		t.Fatalf("differs from the golden at line (from 0) %s", d)
	}
}
