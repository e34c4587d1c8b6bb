package index_test

import (
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/index"
	"copydetect/internal/testkit"
)

// BenchmarkRescore measures View.Rescore on the stream-refresh workload's
// dataset (Stock-1day×0.15) against a round-1-like state: every accuracy
// 0.8 and each value's probability its share of the item's votes, so
// entry scores tie in large groups, as they do before the first vote.
//
//	go test -run '^$' -bench Rescore -benchtime 50x ./internal/index
func BenchmarkRescore(b *testing.B) {
	ds := testkit.Generate(b, testkit.Lookup("stock-1day-x0.15")[0])
	valueCounts := make([]int, ds.NumItems())
	for d := range valueCounts {
		valueCounts[d] = ds.NumValues(dataset.ItemID(d))
	}
	st := bayes.NewState(valueCounts, ds.NumSources(), 0.8)
	for d, svs := range ds.ByItem {
		clear(st.P[d])
		for _, sv := range svs {
			st.P[d][sv.Value] += 1 / float64(len(svs))
		}
	}
	v := index.NewView(index.NewStructure(ds))
	p := bayes.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rescore(st, p, index.ByContribution, nil)
	}
}
