// Benchmarks of the detection kernel, beside the kernel.
//
// BenchmarkHybridWorkers and BenchmarkIncrementalWorkers are the two
// families CI gates (cmd/benchgate compares the PR head with its merge
// base): one warm round on Stock-2wk×0.02 at 1, 2, 4 and 8 workers. A
// tripwire, not a trajectory — the numbers of record come from
// benchmark/run.sh.
//
// BenchmarkRun is the whole-run view on the shapes every kernel change has to
// be sized on, one per side of the scan's routing rule and one far beyond it:
// Stock (few sources, hundreds of shared values a pair — the pair sweep;
// multiply-accumulate and bound bookkeeping dominate), Book-CS (many
// sources, few shared values a pair — the entry walk, just below the rule's
// threshold; cache misses on the pair map dominate) and Book-full (796
// sources, 17 k candidate pairs of 2 co-occurrences each, 12 rounds — the
// shape on which a sweep would lose by half, so it pins what the walk costs
// where nothing else could run). One iteration is one full iterative process
// (fusion.TruthFinder.Run) and the per-round costs are read from
// Outcome.RoundStats, so a line decomposes the way a service round does:
//
//	go test -run '^$' -bench Run -benchtime 10x ./internal/core
//
//	r1-detect-ms / r1-build-ms    round 1 (cold structure, HYBRID)
//	r2-detect-ms / r2-build-ms    round 2 (warm HYBRID; INCREMENTAL's freeze)
//	rest-ms                       rounds 3.. together, detect + build
//	evals/round2                  HYBRID rows: bound evaluations in round 2's
//	                              scan (boundEvals, timer_test.go)
//	ns/cooc                       HYBRID rows: r2-detect over round 2's
//	                              ValuesExamined — the cost of one
//	                              co-occurrence of a pair not yet decided,
//	                              finalisation included
//
// The last two are not reported on INCREMENTAL rows. Round 2 there is the
// freeze: it evaluates the bounds of the cell's HYBRID row, at the same
// co-occurrences (TestFreezeRoundEqualsHybrid), but its Computations also
// count the multiplies past every decision point and prepare's two a pair,
// and its scan time covers co-occurrences ValuesExamined does not — the
// difference, on either column, would be neither bound evaluations nor the
// cost of an examined co-occurrence.
//
// stock-1day×0.15 is the dataset of the benchmark's stream-refresh
// workload (55 sources, 1 485 pairs).
package core_test

import (
	"fmt"
	"testing"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/testkit"
)

func BenchmarkRun(b *testing.B) {
	p := bayes.DefaultParams()
	ms := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	for _, sh := range testkit.Lookup("stock-1day-x0.15", "book-cs-x0.5", "book-full-x0.25") {
		ds := testkit.Generate(b, sh)
		for _, algo := range []string{"HYBRID", "INCREMENTAL"} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/workers%d", sh.ID, algo, workers), func(b *testing.B) {
					opts := core.Options{Workers: workers}
					var det core.Detector = &core.Hybrid{Params: p, Opts: opts}
					if algo == "INCREMENTAL" {
						det = &core.Incremental{Params: p, Opts: opts}
					}
					tf := &fusion.TruthFinder{Params: p, Workers: workers}
					var detect, build [2]time.Duration
					var rest time.Duration
					var evals, coocs int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						out := tf.Run(ds, det)
						for r, st := range out.RoundStats {
							if r < 2 {
								detect[r] += st.Detect
								build[r] += st.IndexBuild
							} else {
								rest += st.Total()
							}
						}
						evals += boundEvals(out.RoundStats[1])
						coocs += out.RoundStats[1].ValuesExamined
					}
					b.ReportMetric(ms(detect[0], b.N), "r1-detect-ms")
					b.ReportMetric(ms(build[0], b.N), "r1-build-ms")
					b.ReportMetric(ms(detect[1], b.N), "r2-detect-ms")
					b.ReportMetric(ms(build[1], b.N), "r2-build-ms")
					b.ReportMetric(ms(rest, b.N), "rest-ms")
					if algo == "HYBRID" {
						b.ReportMetric(float64(evals)/float64(b.N), "evals/round2")
						b.ReportMetric(float64(detect[1])/float64(coocs), "ns/cooc")
					}
				})
			}
		}
	}
}

// gateInstance is the gated families' input: Stock-2wk×0.02 and the state
// after one voting round, as a detector's second round sees it.
func gateInstance(b *testing.B) (*dataset.Dataset, *bayes.State) {
	b.Helper()
	ds := testkit.Generate(b, testkit.Lookup("stock-2wk-x0.02")[0])
	return ds, roundTwoState(ds, bayes.DefaultParams())
}

// BenchmarkHybridWorkers measures one warm HYBRID round at increasing
// worker counts. Results are bit-identical across worker counts
// (parallel_equiv_test.go), so the only thing this varies is wall-clock
// time: workers1 is the single-thread kernel gauge, and the ratio to it the
// scaling gauge (on one CPU the other rows measure sharding overhead).
func BenchmarkHybridWorkers(b *testing.B) {
	p := bayes.DefaultParams()
	ds, st := gateInstance(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			det := &core.Hybrid{Params: p, Opts: core.Options{Workers: workers}}
			det.DetectRound(ds, st, 1) // warm the structural cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectRound(ds, st, 2+i)
			}
		})
	}
}

// BenchmarkIncrementalWorkers measures one incremental round (round >= 3,
// the steady-state cost of the iterative process) at increasing worker
// counts.
func BenchmarkIncrementalWorkers(b *testing.B) {
	p := bayes.DefaultParams()
	ds, st := gateInstance(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			det := &core.Incremental{Params: p, Opts: core.Options{Workers: workers}}
			// Warm rounds outside the measured loop.
			det.DetectRound(ds, st, 1)
			det.DetectRound(ds, st, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectRound(ds, st, 3+i)
			}
		})
	}
}
