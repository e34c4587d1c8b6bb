package dataset_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"copydetect/internal/binio"
	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

// The write path's own benchmarks, on the two shapes the benchmark of
// record serves: few sources over many items (Stock-1day at the scale of
// its stream-refresh workload: 55 sources, 2 400 items, 78 176
// observations) and many sources with short coverage (Book-CS at
// batch-book-cs's serve scale: 447 sources, 1 264 items, 33 312
// observations). CI's kernel gate runs them beside the detector's, so a
// regression in this layer trips the same benchgate — which reads the
// standard columns only, hence no custom per-observation metric here.

type shape struct {
	name string
	cfg  gen.Config
}

var shapes = []shape{
	{"stock-1day", gen.Scale(gen.Stock1Day(1), 0.15)},
	{"book-cs", gen.Scale(gen.BookCS(1), 0.5)},
}

// sink keeps the compiler from discarding a benchmarked call.
var sink any

// each runs fn once per shape as a sub-benchmark, handing it the shape's
// dataset and its records in shuffled arrival order — what a stream looks
// like to the Builder, and the order that makes it insert rather than
// append.
func each(b *testing.B, fn func(b *testing.B, ds *dataset.Dataset, shuffled []dataset.Record)) {
	for _, sh := range shapes {
		ds, _, err := gen.Generate(sh.cfg)
		if err != nil {
			b.Fatal(err)
		}
		recs := dataset.Records(ds)
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b, ds, recs)
		})
	}
}

func BenchmarkBuilderAddRecords(b *testing.B) {
	each(b, func(b *testing.B, _ *dataset.Dataset, recs []dataset.Record) {
		for i := 0; i < b.N; i++ {
			bl := dataset.NewBuilder()
			bl.AddRecords(recs)
			sink = bl
		}
	})
}

func BenchmarkBuilderBuild(b *testing.B) {
	each(b, func(b *testing.B, _ *dataset.Dataset, recs []dataset.Record) {
		bl := dataset.NewBuilder()
		bl.AddRecords(recs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = bl.Build()
		}
	})
}

func BenchmarkReadJSON(b *testing.B) {
	each(b, func(b *testing.B, ds *dataset.Dataset, _ []dataset.Record) {
		var doc bytes.Buffer
		if err := dataset.WriteJSON(&doc, ds); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := dataset.ReadJSON(bytes.NewReader(doc.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			sink = got
		}
	})
}

// BenchmarkDecodeDataset is what a restart pays per dataset: the snapshot
// decoded, and the append Builder rebuilt from it.
func BenchmarkDecodeDataset(b *testing.B) {
	each(b, func(b *testing.B, ds *dataset.Dataset, _ []dataset.Record) {
		var buf bytes.Buffer
		dataset.EncodeDataset(binio.NewWriter(&buf), ds)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := dataset.DecodeDataset(binio.NewReader(bytes.NewReader(buf.Bytes())))
			if err != nil {
				b.Fatal(err)
			}
			sink = dataset.NewBuilderFromDataset(got)
		}
	})
}

// BenchmarkAppendBody decodes one 5 000-record append body, the size
// stream-refresh sends.
func BenchmarkAppendBody(b *testing.B) {
	each(b, func(b *testing.B, _ *dataset.Dataset, recs []dataset.Record) {
		recs = recs[:5000]
		raw, err := json.Marshal(map[string]any{"observations": recs})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obs, _, ok := dataset.ScanAppendBody(string(raw))
			if !ok || len(obs) != len(recs) {
				b.Fatalf("scanned %d records (canonical: %v), want %d", len(obs), ok, len(recs))
			}
			sink = obs
		}
	})
}
