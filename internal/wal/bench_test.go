package wal

import (
	"testing"
	"time"

	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

// BenchmarkAppend is the log's own cost of one acknowledged append, with
// and without fsync, on a payload the size of the record the serving layer
// logs for a 250-record batch of the benchmark's stream-ingest workload
// (Stock-1day×0.07): every string of every record with a length byte, as
// benchmark/layers.go sizes it. fsync_share is the part of an append spent
// in fsync, from the log's own ObserveAppend hook — the ledger's
// wal.fsync_share, without a daemon around it.
//
//	go test -run '^$' -bench Append -benchtime 200x ./internal/wal
func BenchmarkAppend(b *testing.B) {
	ds, _, err := gen.Generate(gen.Scale(gen.Stock1Day(1), 0.07))
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	for _, rec := range dataset.Records(ds)[:250] {
		size += len(rec.Source) + len(rec.Item) + len(rec.Value) + 3
	}
	payload := make([]byte, size)

	for _, c := range []struct {
		name  string
		fsync bool
	}{{"fsync", true}, {"nosync", false}} {
		b.Run(c.name, func(b *testing.B) {
			var total, synced time.Duration
			log, err := Open(b.TempDir(), Options{
				Fsync:         c.fsync,
				ObserveAppend: func(t, f time.Duration) { total += t; synced += f },
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(synced.Seconds()/total.Seconds(), "fsync_share")
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
