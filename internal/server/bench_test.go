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
// benchmark of record's refresh batch) on a converged Stock-1day×0.05
// dataset, the scheduler's quiet period, the round, its publish — timed
// until Registry.Quiesce returns, on a durable registry that fsyncs as the
// daemon does by default. detect-ms and fusion-ms are the published
// outcome's own timers (what …/stats reports); overhead-ms is everything
// else in the op: WAL append, quiet period, snapshot, publish.
//
//	go test -run '^$' -bench Refresh -benchtime 20x ./internal/server
func BenchmarkRefresh(b *testing.B) {
	const batch = 50
	recs := dataset.Records(testkit.Generate(b, testkit.Lookup("stock-1day-x0.05")[0]))
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

// BenchmarkRead is one poll of the benchmark of record's reader — GET
// …/copies, then GET …/truth, through NewHandler — on a published
// Stock-1day×0.15 round. warm serves the bodies the first poll rendered;
// render drops them before every poll, as a publish does, so each poll
// renders both again (every poll did before read bodies were cached).
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
	if _, err := reg.Quiesce(context.Background(), "read"); err != nil {
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
	poll := func(b *testing.B) {
		var w discardWriter
		for _, req := range reqs {
			w.reset()
			h.ServeHTTP(&w, req)
			if w.code != http.StatusOK {
				b.Fatalf("%s: status %d", req.URL.Path, w.code)
			}
		}
	}
	for _, bc := range []struct {
		name    string
		publish bool
	}{{"warm", false}, {"render", true}} {
		b.Run(bc.name, func(b *testing.B) {
			poll(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.publish {
					m.mu.Lock()
					m.reads = nil
					m.mu.Unlock()
				}
				poll(b)
			}
		})
	}
}

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
