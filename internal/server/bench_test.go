package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/pool"
	"copydetect/internal/testkit"
)

// BenchmarkRefresh is one refresh op of the serving layer without a
// process or an HTTP boundary: Managed.Append of 50 new records (the
// benchmark of record's refresh batch) on a converged dataset, the
// scheduler's quiet period, the round, its publish — timed until
// Registry.Quiesce returns, on a durable registry that fsyncs as the daemon
// does by default. Two shapes: Stock-1day×0.05, and Book-CS×0.5, the serve
// shape of the benchmark of record's batch-book-cs workload. detect-ms and
// fusion-ms are the published outcome's own timers (what …/stats reports);
// overhead-ms is everything else in the op: WAL append, quiet period,
// snapshot, publish. B/op counts every goroutine's allocation in the op,
// the compactor's snapshot encode of earlier publishes included.
//
//	go test -run '^$' -bench Refresh -benchtime 20x ./internal/server
func BenchmarkRefresh(b *testing.B) {
	for _, id := range []string{"stock-1day-x0.05", "book-cs-x0.5"} {
		b.Run(id, func(b *testing.B) { benchRefresh(b, id) })
	}
}

func benchRefresh(b *testing.B, preset string) {
	const batch = 50
	recs := dataset.Records(testkit.Generate(b, testkit.Lookup(preset)[0]))
	// A fifth of the stream is held back for the refresh ops; a run
	// longer than that deals the same batches again, which still dirties
	// the dataset and costs a round.
	held := recs[len(recs)-len(recs)/5:]

	reg, err := Open(Config{
		DataDir: b.TempDir(), Fsync: true,
		Options: core.Options{Workers: pool.Auto()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.Create("refresh", DatasetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := m.Append(recs[:len(recs)-len(held)], nil); err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Quiesce(ctx, "refresh"); err != nil {
		b.Fatal(err)
	}

	var detect, fusion time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * batch % (len(held) - batch)
		if _, _, err := m.Append(held[at:at+batch], nil); err != nil {
			b.Fatal(err)
		}
		pub, err := reg.Quiesce(ctx, "refresh")
		if err != nil {
			b.Fatal(err)
		}
		detect += pub.Outcome.TotalStats.Total()
		fusion += pub.Outcome.FusionTime
	}
	b.StopTimer()
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(ms(detect), "detect-ms")
	b.ReportMetric(ms(fusion), "fusion-ms")
	b.ReportMetric(ms(b.Elapsed()-detect-fusion), "overhead-ms")
}

// BenchmarkRead measures the read bodies of a published Stock-1day×0.15
// round. warm is one poll of the benchmark of record's reader — GET
// …/copies, then GET …/truth, through NewHandler — which writes the
// stored bodies; render is what a round does once before it publishes:
// render both bodies and their unconverged twins (renderReads).
//
//	go test -run '^$' -bench Read -benchmem ./internal/server
func BenchmarkRead(b *testing.B) {
	reg := NewRegistry(Config{Options: core.Options{Workers: pool.Auto()}})
	defer reg.Close()
	m, err := reg.Create("read", DatasetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ds := testkit.Generate(b, testkit.Lookup("stock-1day-x0.15")[0])
	if _, _, err := m.Append(dataset.Records(ds), nil); err != nil {
		b.Fatal(err)
	}
	pub, err := reg.Quiesce(context.Background(), "read")
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandler(reg)
	reqs := []*http.Request{}
	for _, ep := range []string{"copies", "truth"} {
		req, err := http.NewRequest(http.MethodGet, "/v1/datasets/read/"+ep, nil)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		var w discardWriter
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				w.reset()
				h.ServeHTTP(&w, req)
				if w.code != http.StatusOK {
					b.Fatalf("%s: status %d", req.URL.Path, w.code)
				}
			}
		}
	})
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rendered = renderReads(m.name, m.gen, pub)
		}
	})
}

// rendered keeps BenchmarkRead's renders from being optimised away.
var rendered *readBodies

// discardWriter is an http.ResponseWriter that keeps the status code
// and drops the body.
type discardWriter struct {
	hdr  http.Header
	code int
}

func (w *discardWriter) reset() { w.hdr, w.code = http.Header{}, 0 }

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
