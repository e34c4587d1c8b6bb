// Tests for the replication primitives the cluster layer builds on:
// sequenced (idempotent) appends, the export/import anti-entropy pair,
// and the durability of imports across restarts.
package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

func batchN(prefix string, n int) []dataset.Record {
	recs := make([]dataset.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, dataset.Record{
			Source: prefix + "-s" + strconv.Itoa(i%3),
			Item:   "d" + strconv.Itoa(i%4),
			Value:  "v" + strconv.Itoa(i%2),
		})
	}
	return recs
}

func TestAppendSeqIdempotent(t *testing.T) {
	reg := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer reg.Close()
	m, err := reg.Create("seq", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Sequence 1 applies.
	v, total, applied, err := m.AppendSeq(batchN("a", 6), nil, 1)
	if err != nil || !applied || v != 1 || total != 6 {
		t.Fatalf("seq 1: v=%d total=%d applied=%v err=%v", v, total, applied, err)
	}
	// Re-delivery of sequence 1 is acknowledged but not re-applied.
	v, total, applied, err = m.AppendSeq(batchN("a", 6), nil, 1)
	if err != nil || applied || v != 1 || total != 6 {
		t.Fatalf("seq 1 replay: v=%d total=%d applied=%v err=%v, want duplicate no-op", v, total, applied, err)
	}
	// A gap (seq 3 while at version 1) is refused.
	if _, _, _, err := m.AppendSeq(batchN("c", 3), nil, 3); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("seq 3 at version 1: err=%v, want ErrSeqGap", err)
	}
	// The next in-order sequence applies; an unconditioned append still
	// works and advances the sequence space.
	if _, _, applied, err := m.AppendSeq(batchN("b", 3), nil, 2); err != nil || !applied {
		t.Fatalf("seq 2: applied=%v err=%v", applied, err)
	}
	if v, _, err := m.Append(batchN("d", 3), nil); err != nil || v != 3 {
		t.Fatalf("unconditioned append: v=%d err=%v", v, err)
	}
	// Replays of any covered sequence stay no-ops afterwards.
	if _, _, applied, err := m.AppendSeq(batchN("b", 3), nil, 2); err != nil || applied {
		t.Fatalf("seq 2 replay after version 3: applied=%v err=%v", applied, err)
	}
	if got := m.Info().Observations; got != 12 {
		t.Fatalf("observations = %d, want 12 (each batch applied exactly once)", got)
	}
}

// TestExportImportReproducesStateBitExactly: importing an export blob
// reproduces the source's Builder interning exactly — the two sides'
// exports stay byte-identical even after both apply further appends.
func TestExportImportReproducesStateBitExactly(t *testing.T) {
	defer func() { testHookRoundStart = nil }() // after both registries have closed
	regA := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer regA.Close()
	regB := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer regB.Close()

	a, err := regA.Create("ds", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Append(batchN("x", 9), []dataset.Record{{Item: "d0", Value: "v0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Quiesce(context.Background(), "ds"); err != nil {
		t.Fatal(err)
	}
	// The rounds counter rides in the blob. A has published exactly one
	// round; park every later round on either side at its start, so the
	// counter stays at 1 on both and the comparison below is exact rather
	// than a race between two schedulers. Released before the registries
	// close (their Close waits for the parked rounds).
	release := make(chan struct{})
	testHookRoundStart = func(*Managed) { <-release }
	defer close(release)
	blob, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}

	applied, version, err := regB.Import("ds", blob)
	if err != nil || !applied || version != 1 {
		t.Fatalf("import: applied=%v version=%d err=%v", applied, version, err)
	}
	b, ok := regB.Get("ds")
	if !ok {
		t.Fatal("import did not create the dataset")
	}

	// Same further appends on both sides → byte-identical exports.
	late := batchN("late", 5)
	if _, _, err := a.Append(late, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Append(late, nil); err != nil {
		t.Fatal(err)
	}
	blobA, errA := a.Export()
	blobB, errB := b.Export()
	if errA != nil || errB != nil {
		t.Fatalf("exports: %v / %v", errA, errB)
	}
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("exports diverge after identical appends on an imported replica")
	}

	// A stale (already-covered) import is acknowledged without effect.
	applied, version, err = regB.Import("ds", blob)
	if err != nil || applied || version != 2 {
		t.Fatalf("stale import: applied=%v version=%d err=%v, want no-op at version 2", applied, version, err)
	}
}

func TestImportSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	src := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer src.Close()
	m, err := src.Create("imported", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Append(batchN("w", 8), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Quiesce(context.Background(), "imported"); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := m.Info().Round
	if wantRounds == 0 {
		t.Fatal("source published no round before export")
	}

	reg := openDurable(t, dir, 1)
	if applied, version, err := reg.Import("imported", blob); err != nil || !applied || version != 1 {
		t.Fatalf("import: applied=%v version=%d err=%v", applied, version, err)
	}
	reg.Close()

	reg = openDurable(t, dir, 1)
	defer reg.Close()
	m2, ok := reg.Get("imported")
	if !ok {
		t.Fatal("imported dataset lost across restart")
	}
	inf := m2.Info()
	if inf.Version != 1 || inf.Observations != 8 {
		t.Fatalf("recovered import: %+v, want version 1 with 8 observations", inf)
	}
	// The imported round ordinal survives too: the recovered dataset
	// counts on from it.
	pub, err := reg.Quiesce(context.Background(), "imported")
	if err != nil || pub == nil {
		t.Fatalf("quiesce after restart: pub=%v err=%v", pub, err)
	}
	if pub.Round <= wantRounds {
		t.Fatalf("recovered import published round %d, want > %d", pub.Round, wantRounds)
	}
}

// TestHTTPSeqExportImport drives the wire protocol: sequenced appends
// via the X-Copydetect-Seq header, the 409 on a gap, and the
// export/import round trip between two handlers.
func TestHTTPSeqExportImport(t *testing.T) {
	regA := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer regA.Close()
	regB := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer regB.Close()
	srvA := httptest.NewServer(NewHandler(regA))
	defer srvA.Close()
	srvB := httptest.NewServer(NewHandler(regB))
	defer srvB.Close()

	// doRaw sends body as it is, with seq (when not "") as the sequence
	// header.
	doRaw := func(method, url, seq string, body []byte) (int, http.Header, string) {
		t.Helper()
		hdr := http.Header{}
		if seq != "" {
			hdr.Set(SeqHeader, seq)
		}
		status, respHdr, raw, err := testkit.Do(http.DefaultClient, method, url, body, hdr)
		if err != nil {
			t.Fatal(err)
		}
		return status, respHdr, string(raw)
	}
	doSeq := func(base, seq, body string) (int, string) {
		t.Helper()
		status, _, raw := doRaw(http.MethodPost, base+"/v1/datasets/h/observations", seq, []byte(body))
		return status, raw
	}

	if status, _, body := doRaw(http.MethodPut, srvA.URL+"/v1/datasets/h", "", nil); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	batch := `{"observations":[{"s":"s1","d":"d1","v":"a"},{"s":"s2","d":"d1","v":"a"},{"s":"s3","d":"d1","v":"b"}]}`
	if status, body := doSeq(srvA.URL, "1", batch); status != http.StatusAccepted || strings.Contains(body, `"duplicate"`) {
		t.Fatalf("seq 1: %d %s", status, body)
	}
	if status, body := doSeq(srvA.URL, "1", batch); status != http.StatusAccepted || !strings.Contains(body, `"duplicate": true`) {
		t.Fatalf("seq 1 replay: %d %s, want 202 with duplicate marker", status, body)
	}
	if status, body := doSeq(srvA.URL, "5", batch); status != http.StatusConflict {
		t.Fatalf("seq 5 gap: %d %s, want 409", status, body)
	}
	if status, body := doSeq(srvA.URL, "", "not json"); status != http.StatusBadRequest {
		t.Fatalf("bad body: %d %s", status, body)
	}
	if status, body := doSeq(srvA.URL, "zero", batch); status != http.StatusBadRequest {
		t.Fatalf("non-numeric seq: %d %s, want 400", status, body)
	}

	// Export from A, import into B, and the mirrored stream continues.
	status, hdr, blob := doRaw(http.MethodGet, srvA.URL+"/v1/datasets/h/export", "", nil)
	if status != http.StatusOK {
		t.Fatalf("export: %d %s", status, blob)
	}
	if got := hdr.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("export content type %q", got)
	}
	if status, _, body := doRaw(http.MethodPost, srvB.URL+"/v1/datasets/h/import", "", []byte(blob)); status != http.StatusOK {
		t.Fatalf("import: %d %s", status, body)
	}
	batch2 := `{"observations":[{"s":"s4","d":"d2","v":"a"},{"s":"s5","d":"d2","v":"a"},{"s":"s6","d":"d2","v":"b"}]}`
	if status, body := doSeq(srvB.URL, "2", batch2); status != http.StatusAccepted || strings.Contains(body, `"duplicate"`) {
		t.Fatalf("seq 2 on imported replica: %d %s", status, body)
	}
	mB, _ := regB.Get("h")
	if inf := mB.Info(); inf.Version != 2 || inf.Observations != 6 {
		t.Fatalf("replica after import + seq 2: %+v", inf)
	}

	// Export of a missing dataset and a garbage import both fail cleanly.
	if status, _, body := doRaw(http.MethodGet, srvA.URL+"/v1/datasets/nope/export", "", nil); status != http.StatusNotFound {
		t.Fatalf("export missing: %d %s", status, body)
	}
	if status, _, body := doRaw(http.MethodPost, srvB.URL+"/v1/datasets/h/import", "", []byte("garbage")); status != http.StatusBadRequest {
		t.Fatalf("garbage import: %d %s", status, body)
	}
}

// TestImportRunsTheImportersWorkers: the worker count belongs to the
// process. A blob exported by a 3-worker registry gives, imported into a
// 1-worker one, a dataset that runs 1 worker and publishes what the
// exporter published.
func TestImportRunsTheImportersWorkers(t *testing.T) {
	src := NewRegistry(Config{Options: core.Options{Workers: 3}})
	defer src.Close()
	dst := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer dst.Close()
	a, err := src.Create("ds", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := dataset.Motivating()
	if _, _, err := a.Append(dataset.Records(ds), nil); err != nil {
		t.Fatal(err)
	}
	want := quiesce(t, src, "ds")
	blob, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	if applied, _, err := dst.Import("ds", blob); err != nil || !applied {
		t.Fatalf("import: applied=%v err=%v", applied, err)
	}
	b, _ := dst.Get("ds")
	if got := b.Info().Workers; got != 1 {
		t.Fatalf("imported dataset runs %d workers, want the importer's 1", got)
	}
	got := quiesce(t, dst, "ds")
	if d := testkit.Diff(got.Outcome, want.Outcome, untimed...); d != "" || len(want.Outcome.Copy.CopyingPairs()) == 0 {
		t.Fatalf("the importer publishes another outcome than the exporter: %s", d)
	}
}

// TestImportRefusesOtherPriors: an import into an existing dataset whose
// priors differ from the blob's is refused, with 409 on the wire, and
// leaves the dataset as it was, although the blob is newer.
func TestImportRefusesOtherPriors(t *testing.T) {
	src := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer src.Close()
	dst := NewRegistry(Config{Options: core.Options{Workers: 1}})
	defer dst.Close()
	a, err := src.Create("ds", DatasetConfig{Params: bayes.Params{Alpha: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"x", "y"} {
		if _, _, err := a.Append(batchN(prefix, 6), nil); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Create("ds", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Append(batchN("z", 6), nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, dst, "ds")
	before := captureState(t, b)

	if applied, _, err := dst.Import("ds", blob); !errors.Is(err, ErrPriorsMismatch) || applied {
		t.Fatalf("import of α=0.2 into an α=0.1 dataset: applied=%v err=%v, want ErrPriorsMismatch", applied, err)
	}
	srv := httptest.NewServer(NewHandler(dst))
	defer srv.Close()
	status, _, body, err := testkit.Do(http.DefaultClient, http.MethodPost, srv.URL+"/v1/datasets/ds/import", blob, nil)
	if err != nil || status != http.StatusConflict {
		t.Fatalf("import over HTTP: %d %s (%v), want 409", status, body, err)
	}
	if d := testkit.Diff(captureState(t, b), before, "Generation"); d != "" {
		t.Fatalf("a refused import changed the dataset: %s", d)
	}
}
