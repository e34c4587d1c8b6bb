package fusion

// Benchmarks of the truth-finding step next to its code: the two
// functions a round of TruthFinder.Run spends its own time in, on the
// batch datasets of the benchmark of record (Stock-1day at a quarter of
// the paper's size, Book-CS at the paper's), sequentially and at two
// workers. CI's kernel gate runs BenchmarkValueProbs beside the scan
// benchmarks.

import (
	"fmt"
	"sync"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

// benchInput is what round 3's truth-finding step sees: the state and the
// copy graph of the round's detection.
type benchInput struct {
	ds *dataset.Dataset
	st *bayes.State
	g  *copyGraph
}

var benchInputs = []struct {
	id  string
	get func() benchInput // made on first use, once
}{
	{"stock-1day", sync.OnceValue(func() benchInput { return makeBenchInput(gen.Scale(gen.Stock1Day(1), 0.25)) })},
	{"book-cs", sync.OnceValue(func() benchInput { return makeBenchInput(gen.BookCS(1)) })},
}

func makeBenchInput(cfg gen.Config) benchInput {
	ds, _, err := gen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	in := benchInput{ds: ds}
	p := bayes.DefaultParams()
	tf := &TruthFinder{Params: p, MinRounds: 3, MaxRounds: 3}
	tf.OnRound = func(_ int, _ *dataset.Dataset, st *bayes.State, res *core.Result) {
		in.st, in.g = st.Clone(), newCopyGraph(res)
	}
	tf.Run(ds, &core.Hybrid{Params: p})
	return in
}

// forEachBenchInput runs fn as a sub-benchmark per dataset and worker
// count, with the input made outside the timer.
func forEachBenchInput(b *testing.B, fn func(b *testing.B, in benchInput, workers int)) {
	for _, input := range benchInputs {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers%d", input.id, workers), func(b *testing.B) {
				in := input.get()
				b.ReportAllocs()
				b.ResetTimer()
				fn(b, in, workers)
			})
		}
	}
}

// The benchmarks' results land here, so the calls cannot be optimized away.
var (
	sinkProbs [][]float64
	sinkAcc   []float64
)

func BenchmarkValueProbs(b *testing.B) {
	p := bayes.DefaultParams()
	forEachBenchInput(b, func(b *testing.B, in benchInput, workers int) {
		for i := 0; i < b.N; i++ {
			sinkProbs = valueProbs(in.ds, in.st, p, in.g, workers)
		}
	})
}

func BenchmarkAccuracies(b *testing.B) {
	forEachBenchInput(b, func(b *testing.B, in benchInput, workers int) {
		for i := 0; i < b.N; i++ {
			sinkAcc = accuracies(in.ds, in.st.P, workers)
		}
	})
}
