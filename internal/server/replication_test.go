// Tests for the replication primitives the cluster layer builds on:
// sequenced (idempotent) appends, the export/import anti-entropy pair,
// and the durability of imports across restarts.
package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
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

	doSeq := func(base string, seq uint64, body string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/datasets/h/observations", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if seq > 0 {
			req.Header.Set(SeqHeader, strconv.FormatUint(seq, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(raw)
	}

	req, _ := http.NewRequest(http.MethodPut, srvA.URL+"/v1/datasets/h", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %v %v", resp, err)
	}
	batch := `{"observations":[{"s":"s1","d":"d1","v":"a"},{"s":"s2","d":"d1","v":"a"},{"s":"s3","d":"d1","v":"b"}]}`
	if resp, body := doSeq(srvA.URL, 1, batch); resp.StatusCode != http.StatusAccepted || strings.Contains(body, `"duplicate"`) {
		t.Fatalf("seq 1: %d %s", resp.StatusCode, body)
	}
	if resp, body := doSeq(srvA.URL, 1, batch); resp.StatusCode != http.StatusAccepted || !strings.Contains(body, `"duplicate": true`) {
		t.Fatalf("seq 1 replay: %d %s, want 202 with duplicate marker", resp.StatusCode, body)
	}
	if resp, body := doSeq(srvA.URL, 5, batch); resp.StatusCode != http.StatusConflict {
		t.Fatalf("seq 5 gap: %d %s, want 409", resp.StatusCode, body)
	}
	if resp, body := doSeq(srvA.URL, 0, "not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d %s", resp.StatusCode, body)
	}
	badSeq, _ := http.NewRequest(http.MethodPost, srvA.URL+"/v1/datasets/h/observations", strings.NewReader(batch))
	badSeq.Header.Set(SeqHeader, "zero")
	if resp, err := http.DefaultClient.Do(badSeq); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric seq: %v %v, want 400", resp, err)
	}

	// Export from A, import into B, and the mirrored stream continues.
	resp, err := http.Get(srvA.URL + "/v1/datasets/h/export")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %v %v", resp, err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("export content type %q", got)
	}
	iresp, err := http.Post(srvB.URL+"/v1/datasets/h/import", "application/octet-stream", bytes.NewReader(blob))
	if err != nil || iresp.StatusCode != http.StatusOK {
		t.Fatalf("import: %v %v", iresp, err)
	}
	iresp.Body.Close()
	batch2 := `{"observations":[{"s":"s4","d":"d2","v":"a"},{"s":"s5","d":"d2","v":"a"},{"s":"s6","d":"d2","v":"b"}]}`
	if resp, body := doSeq(srvB.URL, 2, batch2); resp.StatusCode != http.StatusAccepted || strings.Contains(body, `"duplicate"`) {
		t.Fatalf("seq 2 on imported replica: %d %s", resp.StatusCode, body)
	}
	mB, _ := regB.Get("h")
	if inf := mB.Info(); inf.Version != 2 || inf.Observations != 6 {
		t.Fatalf("replica after import + seq 2: %+v", inf)
	}

	// Export of a missing dataset and a garbage import both fail cleanly.
	if resp, err := http.Get(srvA.URL + "/v1/datasets/nope/export"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export missing: %v %v", resp, err)
	}
	if resp, err := http.Post(srvB.URL+"/v1/datasets/h/import", "application/octet-stream", strings.NewReader("garbage")); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage import: %v %v", resp, err)
	}
}
