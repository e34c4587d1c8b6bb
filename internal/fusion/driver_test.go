package fusion

import (
	"math/rand"
	"testing"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/sample"
)

// TestOnRoundCallback: the per-round hook fires once per round with the
// dataset the detector saw.
func TestOnRoundCallback(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	var rounds []int
	tf := &TruthFinder{Params: p}
	tf.OnRound = func(round int, detDS *dataset.Dataset, detSt *bayes.State, res *core.Result) {
		rounds = append(rounds, round)
		if detDS != ds {
			t.Error("OnRound should see the detection dataset")
		}
		if res == nil || len(detSt.A) != ds.NumSources() {
			t.Error("OnRound got inconsistent arguments")
		}
	}
	out := tf.Run(ds, &core.Index{Params: p})
	if len(rounds) != out.Rounds {
		t.Fatalf("callback fired %d times for %d rounds", len(rounds), out.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("rounds out of order: %v", rounds)
		}
	}
}

// TestMinMaxRounds: the driver honors forced round counts.
func TestMinMaxRounds(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	out := (&TruthFinder{Params: p, MinRounds: 7, MaxRounds: 7}).Run(ds, &core.Index{Params: p})
	if out.Rounds != 7 {
		t.Errorf("forced 7 rounds, got %d", out.Rounds)
	}
	out = (&TruthFinder{Params: p, MinRounds: 1, MaxRounds: 2}).Run(ds, &core.Index{Params: p})
	if out.Rounds > 2 {
		t.Errorf("capped at 2 rounds, got %d", out.Rounds)
	}
}

// TestSampledDriverProjection: with DetectDataset set, detection sees the
// sampled items with shared value probabilities, and fusion still decides
// all full-dataset items.
func TestSampledDriverProjection(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	s := sample.ByItem(ds, 0.6, rand.New(rand.NewSource(2)))
	var sawItems int
	tf := &TruthFinder{Params: p, DetectDataset: s.Dataset, ItemMap: s.ItemMap}
	tf.OnRound = func(round int, detDS *dataset.Dataset, detSt *bayes.State, res *core.Result) {
		sawItems = detDS.NumItems()
		if len(detSt.P) != detDS.NumItems() {
			t.Error("projected state has wrong item count")
		}
	}
	out := tf.Run(ds, &core.Index{Params: p})
	if sawItems != s.Dataset.NumItems() {
		t.Errorf("detector saw %d items, want %d", sawItems, s.Dataset.NumItems())
	}
	if len(out.Truth) != ds.NumItems() {
		t.Errorf("fusion decided %d items, want all %d", len(out.Truth), ds.NumItems())
	}
}

// TestRoundStatsAccumulate: the outcome's totals equal the per-round sums.
func TestRoundStatsAccumulate(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	out := (&TruthFinder{Params: p}).Run(ds, &core.Hybrid{Params: p})
	var comp int64
	for _, st := range out.RoundStats {
		comp += st.Computations
	}
	if comp != out.TotalStats.Computations {
		t.Errorf("total computations %d != per-round sum %d", out.TotalStats.Computations, comp)
	}
	if out.TotalStats.Rounds != out.Rounds {
		t.Errorf("stats rounds %d != %d", out.TotalStats.Rounds, out.Rounds)
	}
}

// TestCancelAbortsRun: a closed Cancel channel makes Run return nil
// between rounds — mid-process for a channel closed by the OnRound hook,
// immediately for one closed up front.
func TestCancelAbortsRun(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()

	pre := make(chan struct{})
	close(pre)
	tf := &TruthFinder{Params: p, Cancel: pre}
	if out := tf.Run(ds, &core.Hybrid{Params: p}); out != nil {
		t.Fatalf("pre-cancelled Run returned %+v, want nil", out)
	}

	mid := make(chan struct{})
	rounds := 0
	tf = &TruthFinder{Params: p, Cancel: mid}
	tf.OnRound = func(round int, _ *dataset.Dataset, _ *bayes.State, _ *core.Result) {
		rounds = round
		if round == 2 {
			close(mid)
		}
	}
	if out := tf.Run(ds, &core.Hybrid{Params: p}); out != nil {
		t.Fatalf("mid-cancelled Run returned %+v, want nil", out)
	}
	if rounds != 2 {
		t.Fatalf("detector ran %d rounds after cancellation, want 2", rounds)
	}

	// A nil Cancel leaves the process untouched.
	tf = &TruthFinder{Params: p}
	if out := tf.Run(ds, &core.Hybrid{Params: p}); out == nil {
		t.Fatal("uncancelled Run returned nil")
	}
}

// TestCancelRacedAgainstRun closes the Cancel channel from a separate
// goroutine at staggered delays while Run is mid-flight, many times
// over. It pins the concurrency contract (run under -race in CI): a
// racing cancellation either aborts the run — Run returns nil — or the
// run completes with a fully-formed Outcome; never a torn one, never a
// panic or deadlock.
func TestCancelRacedAgainstRun(t *testing.T) {
	ds, _ := dataset.Motivating()
	p := exampleParams()
	aborted, completed := 0, 0
	for i := 0; i < 40; i++ {
		cancel := make(chan struct{})
		tf := &TruthFinder{Params: p, Cancel: cancel}
		// Stretch every other run so the closing goroutine lands mid-run
		// (the motivating example alone detects in microseconds); the
		// fast runs exercise the complete-despite-late-cancel side.
		if i%2 == 0 {
			tf.OnRound = func(int, *dataset.Dataset, *bayes.State, *core.Result) {
				time.Sleep(50 * time.Microsecond)
			}
		}
		done := make(chan *Outcome, 1)
		go func() {
			done <- tf.Run(ds, &core.Hybrid{Params: p})
		}()
		go func(delay time.Duration) {
			time.Sleep(delay)
			close(cancel)
		}(time.Duration(i%20) * 60 * time.Microsecond)
		select {
		case out := <-done:
			if out == nil {
				aborted++
				continue
			}
			completed++
			if out.State == nil || out.Copy == nil || out.Rounds == 0 ||
				len(out.Truth) != ds.NumItems() || len(out.RoundStats) != out.Rounds {
				t.Fatalf("iteration %d: torn outcome %+v", i, out)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("iteration %d: Run neither returned nor aborted", i)
		}
	}
	t.Logf("%d aborted, %d completed", aborted, completed)
	if aborted == 0 {
		t.Log("no run observed the cancellation; timing too coarse on this machine (not a failure)")
	}
}
