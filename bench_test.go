package copydetect

// One benchmark per table and figure of the paper's evaluation
// (Section VI), on scaled-down versions of the four synthetic workloads.
// Absolute numbers depend on hardware; the paper's claims live in the
// ratios between methods, which `go test -bench=.` lets you read off
// directly. cmd/experiments regenerates the actual tables.

import (
	"math/rand"
	"sync"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
	"copydetect/internal/index"
	"copydetect/internal/nra"
	"copydetect/internal/sample"
)

// benchScale keeps the full benchmark suite in the minutes range.
var benchScale = map[string]float64{
	"book-cs":    0.25,
	"stock-1day": 0.08,
	"book-full":  0.05,
	"stock-2wk":  0.02,
}

type benchInstance struct {
	ds *dataset.Dataset
	st *bayes.State // state after one voting round, as the detectors see it
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchInstance{}
)

func benchDataset(b *testing.B, id string) *benchInstance {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if inst, ok := benchCache[id]; ok {
		return inst
	}
	var cfg gen.Config
	switch id {
	case "book-cs":
		cfg = gen.BookCS(11)
	case "stock-1day":
		cfg = gen.Stock1Day(12)
	case "book-full":
		cfg = gen.BookFull(13)
	case "stock-2wk":
		cfg = gen.Stock2Wk(14)
	default:
		b.Fatalf("unknown dataset %q", id)
	}
	cfg = gen.Scale(cfg, benchScale[id])
	ds, _, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := bayes.DefaultParams()
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	st.P = fusion.ValueProbs(ds, st, p, nil)
	st.A = fusion.Accuracies(ds, st.P)
	inst := &benchInstance{ds: ds, st: st}
	benchCache[id] = inst
	return inst
}

func benchIDs() []string { return []string{"book-cs", "stock-1day", "book-full", "stock-2wk"} }

// BenchmarkTable5_IndexBuild measures what a detector's first round
// builds before it can scan: the entry universe (Structure, bitsets
// included) plus one scored View (the build cost discussed under Table V
// / Proposition 3.5).
func BenchmarkTable5_IndexBuild(b *testing.B) {
	p := bayes.DefaultParams()
	for _, id := range benchIDs() {
		inst := benchDataset(b, id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := index.NewView(index.NewStructure(inst.ds))
				v.Rescore(inst.st, p, index.ByContribution, nil)
				if len(v.Order) == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// BenchmarkTable6_Quality runs the full iterative process with the
// quality-bearing methods of Table VI on Book-CS (the dataset where they
// differ most).
func BenchmarkTable6_Quality(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "book-cs")
	for _, m := range []struct {
		name string
		det  func() core.Detector
	}{
		{"PAIRWISE", func() core.Detector { return &core.Pairwise{Params: p} }},
		{"INDEX", func() core.Detector { return &core.Index{Params: p} }},
		{"HYBRID", func() core.Detector { return &core.Hybrid{Params: p} }},
		{"INCREMENTAL", func() core.Detector { return &core.Incremental{Params: p} }},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tf := &fusion.TruthFinder{Params: p}
				out := tf.Run(inst.ds, m.det())
				if out.Rounds == 0 {
					b.Fatal("no rounds")
				}
			}
		})
	}
}

// BenchmarkTable7_EndToEnd is Table VII's measurement: total
// copy-detection cost of each method across the full iterative process,
// per dataset.
func BenchmarkTable7_EndToEnd(b *testing.B) {
	p := bayes.DefaultParams()
	for _, id := range benchIDs() {
		inst := benchDataset(b, id)
		for _, m := range []struct {
			name string
			run  func() *fusion.Outcome
		}{
			{"PAIRWISE", func() *fusion.Outcome {
				return (&fusion.TruthFinder{Params: p}).Run(inst.ds, &core.Pairwise{Params: p})
			}},
			{"INDEX", func() *fusion.Outcome {
				return (&fusion.TruthFinder{Params: p}).Run(inst.ds, &core.Index{Params: p})
			}},
			{"HYBRID", func() *fusion.Outcome {
				return (&fusion.TruthFinder{Params: p}).Run(inst.ds, &core.Hybrid{Params: p})
			}},
			{"INCREMENTAL", func() *fusion.Outcome {
				return (&fusion.TruthFinder{Params: p}).Run(inst.ds, &core.Incremental{Params: p})
			}},
			{"SCALESAMPLE", func() *fusion.Outcome {
				s := sample.ScaleSample(inst.ds, 0.1, 4, rand.New(rand.NewSource(5)))
				tf := &fusion.TruthFinder{Params: p, DetectDataset: s.Dataset, ItemMap: s.ItemMap}
				return tf.Run(inst.ds, &core.Incremental{Params: p})
			}},
		} {
			b.Run(id+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if out := m.run(); out.Rounds == 0 {
						b.Fatal("no rounds")
					}
				}
			})
		}
	}
}

// BenchmarkTable8_IncrementalRound isolates the cost of one incremental
// round (round >= 3) against one HYBRID round on the same state — the
// per-round ratio of Table VIII.
func BenchmarkTable8_IncrementalRound(b *testing.B) {
	p := bayes.DefaultParams()
	for _, id := range benchIDs() {
		inst := benchDataset(b, id)
		b.Run(id+"/HYBRID", func(b *testing.B) {
			det := &core.Hybrid{Params: p}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 1)
			}
		})
		b.Run(id+"/INCREMENTAL", func(b *testing.B) {
			det := &core.Incremental{Params: p}
			// Warm rounds outside the measured loop.
			det.DetectRound(inst.ds, inst.st, 1)
			det.DetectRound(inst.ds, inst.st, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 3+i)
			}
		})
	}
}

// BenchmarkTable9_Sampling measures the three sampling strategies
// (drawing the sample plus one detection round on it).
func BenchmarkTable9_Sampling(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "book-cs")
	strategies := []struct {
		name string
		draw func(seed int64) sample.Result
	}{
		{"SCALESAMPLE", func(seed int64) sample.Result {
			return sample.ScaleSample(inst.ds, 0.1, 4, rand.New(rand.NewSource(seed)))
		}},
		{"BYITEM", func(seed int64) sample.Result {
			return sample.ByItem(inst.ds, 0.1, rand.New(rand.NewSource(seed)))
		}},
		{"BYCELL", func(seed int64) sample.Result {
			return sample.ByCell(inst.ds, 0.1, rand.New(rand.NewSource(seed)))
		}},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			det := &core.Index{Params: p}
			for i := 0; i < b.N; i++ {
				res := s.draw(int64(i))
				sub := res.Dataset
				valueCounts := make([]int, sub.NumItems())
				for d := range valueCounts {
					valueCounts[d] = sub.NumValues(dataset.ItemID(d))
				}
				st := bayes.NewState(valueCounts, sub.NumSources(), 0.8)
				st.P = fusion.ValueProbs(sub, st, p, nil)
				st.A = fusion.Accuracies(sub, st.P)
				det.DetectRound(sub, st, 1)
			}
		})
	}
}

// BenchmarkTable10_FaginInput measures generating the NRA input lists —
// the cost Table X compares our algorithms against.
func BenchmarkTable10_FaginInput(b *testing.B) {
	p := bayes.DefaultParams()
	for _, id := range benchIDs() {
		inst := benchDataset(b, id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := nra.BuildInput(inst.ds, inst.st, p)
				if len(in.ValueLists) == 0 {
					b.Fatal("no lists")
				}
			}
		})
	}
}

// BenchmarkFigure2_SingleRound measures one detection round of each
// single-round algorithm (the per-round view of Figure 2).
func BenchmarkFigure2_SingleRound(b *testing.B) {
	p := bayes.DefaultParams()
	for _, id := range benchIDs() {
		inst := benchDataset(b, id)
		for _, m := range []struct {
			name string
			det  core.Detector
		}{
			{"INDEX", &core.Index{Params: p}},
			{"BOUND", &core.Bound{Params: p}},
			{"BOUND+", &core.BoundPlus{Params: p}},
			{"HYBRID", &core.Hybrid{Params: p}},
		} {
			b.Run(id+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.det.DetectRound(inst.ds, inst.st, 1)
				}
			})
		}
	}
}

// BenchmarkFigure3_Ordering measures one BOUND round under the three entry
// orderings of Figure 3.
func BenchmarkFigure3_Ordering(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "stock-1day")
	for _, ord := range []index.Order{index.Random, index.ByProvider, index.ByContribution} {
		b.Run(ord.String(), func(b *testing.B) {
			det := &core.Bound{Params: p, Opts: core.Options{Order: ord, Seed: 4}}
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 1)
			}
		})
	}
}

// BenchmarkAblation_ParallelIndex measures the Section VIII extension:
// per-entry parallel score computation with varying worker counts.
func BenchmarkAblation_ParallelIndex(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "stock-1day")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(name(workers), func(b *testing.B) {
			det := &core.Index{Params: p, Opts: core.Options{Workers: workers}}
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 1)
			}
		})
	}
}

func name(workers int) string {
	return "workers" + itoa(workers)
}

// BenchmarkHybridWorkers measures the parallel detection engine on the
// Stock-2wk-scale workload: one HYBRID round at increasing worker counts.
// Results are bit-identical across worker counts (see
// internal/core/parallel_equiv_test.go), so the only thing this varies is
// wall-clock time; the speedup at 4 workers is the cross-PR scaling
// regression gauge, and workers1 is the single-thread kernel gauge
// (BENCH.md tracks both across PRs). ReportAllocs pins the warm-cache
// allocation count even without -benchmem.
func BenchmarkHybridWorkers(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "stock-2wk")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(name(workers), func(b *testing.B) {
			det := &core.Hybrid{Params: p, Opts: core.Options{Workers: workers}}
			det.DetectRound(inst.ds, inst.st, 1) // warm the structural cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 2+i)
			}
		})
	}
}

// BenchmarkIncrementalWorkers measures one incremental round (round >= 3,
// the steady-state cost of the iterative process) at increasing worker
// counts on the Stock-2wk-scale workload.
func BenchmarkIncrementalWorkers(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "stock-2wk")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(name(workers), func(b *testing.B) {
			det := &core.Incremental{Params: p, Opts: core.Options{Workers: workers}}
			// Warm rounds outside the measured loop.
			det.DetectRound(inst.ds, inst.st, 1)
			det.DetectRound(inst.ds, inst.st, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 3+i)
			}
		})
	}
}

// BenchmarkIncrementalSteadyState is the zero-allocation configuration of
// the serving loop: one worker, ReuseResult on, state unchanged between
// rounds. TestIncrementalSteadyStateAllocs asserts the 0 allocs/op this
// benchmark reports; together they keep the steady-state round GC-silent.
func BenchmarkIncrementalSteadyState(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "stock-2wk")
	det := &core.Incremental{Params: p, Opts: core.Options{Workers: 1}, ReuseResult: true}
	det.DetectRound(inst.ds, inst.st, 1)
	det.DetectRound(inst.ds, inst.st, 2)
	det.DetectRound(inst.ds, inst.st, 3) // one-time costs (result buffer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.DetectRound(inst.ds, inst.st, 4+i)
	}
}

// BenchmarkAblation_HybridThreshold sweeps HYBRID's share threshold (the
// paper picked 16 empirically).
func BenchmarkAblation_HybridThreshold(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "book-cs")
	for _, th := range []int{1, 4, 16, 64, 1 << 20} {
		b.Run("threshold"+itoa(th), func(b *testing.B) {
			det := &core.Hybrid{Params: p, Opts: core.Options{ShareThreshold: th}}
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 1)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation_PairwiseParallel measures the naive parallelization
// baseline the paper's Section VIII warns about.
func BenchmarkAblation_PairwiseParallel(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "book-cs")
	for _, workers := range []int{1, 4} {
		b.Run(name(workers), func(b *testing.B) {
			det := &core.Pairwise{Params: p, Workers: workers}
			for i := 0; i < b.N; i++ {
				det.DetectRound(inst.ds, inst.st, 1)
			}
		})
	}
}

// BenchmarkAblation_StructCache compares a persistent detector (which
// reuses the cross-round structural cache of shared-item counts) against
// fresh detectors that pay the set-similarity-join count every round.
func BenchmarkAblation_StructCache(b *testing.B) {
	p := bayes.DefaultParams()
	inst := benchDataset(b, "stock-1day")
	b.Run("cached", func(b *testing.B) {
		det := &core.Index{Params: p}
		det.DetectRound(inst.ds, inst.st, 1) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.DetectRound(inst.ds, inst.st, 2+i)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det := &core.Index{Params: p}
			det.DetectRound(inst.ds, inst.st, 1)
		}
	})
}

// BenchmarkExtensions_ScoringOverhead measures the cost of the footnote
// extensions relative to the plain model for one PAIRWISE round.
func BenchmarkExtensions_ScoringOverhead(b *testing.B) {
	inst := benchDataset(b, "stock-1day")
	plain := bayes.DefaultParams()
	ext := plain
	ext.CoverageWeight = 1
	stDist := inst.st.Clone()
	stDist.Pop = dataset.ValuePopularities(inst.ds)
	b.Run("plain", func(b *testing.B) {
		det := &core.Pairwise{Params: plain}
		for i := 0; i < b.N; i++ {
			det.DetectRound(inst.ds, inst.st, 1)
		}
	})
	b.Run("extended", func(b *testing.B) {
		det := &core.Pairwise{Params: ext}
		for i := 0; i < b.N; i++ {
			det.DetectRound(inst.ds, stDist, 1)
		}
	})
}
