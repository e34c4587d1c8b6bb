package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/telemetry"
	"copydetect/internal/testkit"
)

// The scheduler tests wait on events — a round reaching
// testHookRoundStart, a request body being consumed, Quiesce returning —
// and never sleep to let something happen; the one sleep below is a lower
// bound (the quiet period must be over), so a slow machine only makes it
// more true.

// countRoundStarts installs a testHookRoundStart that counts rounds and
// announces each on the returned channel.
func countRoundStarts(t *testing.T) (*atomic.Int64, <-chan struct{}) {
	t.Helper()
	var n atomic.Int64
	started := make(chan struct{}, 1024) // never blocks a round: far more than any test here starts
	testHookRoundStart = func(*Managed) {
		n.Add(1)
		started <- struct{}{}
	}
	t.Cleanup(func() { testHookRoundStart = nil })
	return &n, started
}

func awaitRoundStart(t *testing.T, started <-chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("no detection round started")
	}
}

// postAppend runs one append through the handler, in process.
func postAppend(t *testing.T, h http.Handler, name string, body io.Reader) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/"+name+"/observations", body))
	if rec.Code != http.StatusAccepted {
		t.Errorf("append: status %d: %s", rec.Code, rec.Body)
	}
}

func appendJSON(t *testing.T, recs []dataset.Record) []byte {
	t.Helper()
	body, err := json.Marshal(appendRequest{Observations: recs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// counterValue scrapes one unlabelled sample.
func counterValue(t *testing.T, treg *telemetry.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := treg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseLines(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	t.Fatalf("%s is not exported:\n%s", name, b.String())
	return 0
}

// TestBurstStartsNoDoomedRounds: a bulk ingest — appends back to back
// through the handler — does not start a round per append. The scheduler
// used to start one at every kick, each cancelled by the next append;
// now the burst starts none, and the round after it covers everything.
// "At most two" leaves room for one stall of the test's goroutine longer
// than the quiet period between two appends. Every round started is
// either the one published or counted as abandoned.
func TestBurstStartsNoDoomedRounds(t *testing.T) {
	starts, _ := countRoundStarts(t)
	reg := NewRegistry(Config{Options: core.Options{Workers: 2}})
	defer reg.Close()
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	h := NewHandler(reg)
	if _, err := reg.Create("burst", DatasetConfig{}); err != nil {
		t.Fatal(err)
	}
	batches := testkit.Batches(dataset.Records(testkit.Generate(t, streamPreset)), 40)
	bodies := make([][]byte, len(batches))
	for i, batch := range batches {
		bodies[i] = appendJSON(t, batch)
	}
	for _, body := range bodies {
		postAppend(t, h, "burst", bytes.NewReader(body))
	}
	pub := quiesce(t, reg, "burst")
	if n := starts.Load(); n < 1 || n > 2 {
		t.Errorf("%d appends back to back started %d rounds, want 1 (2 with a stall)", len(bodies), n)
	}
	if got, want := counterValue(t, treg, "copydetectd_rounds_abandoned_total"), float64(starts.Load()-1); got != want {
		t.Errorf("copydetectd_rounds_abandoned_total = %v, want %v: %d rounds started, one published", got, want, starts.Load())
	}

	// The batch result: the same records through a fresh Builder, one run.
	final, want := batchOutcome(batches, nil, 2)
	if pub == nil || pub.Version != uint64(len(batches)) || testkit.Diff(pub.Snapshot, final, untimed...) != "" {
		t.Fatalf("published %+v, want a round on the batch-built dataset at version %d", pub, len(batches))
	}
	if diff := testkit.Diff(pub.Outcome, want, untimed...); diff != "" || len(want.Copy.Pairs) == 0 {
		t.Fatalf("the round after the burst differs from the batch run (%d pairs): %s", len(want.Copy.Pairs), diff)
	}
}

// TestIsolatedAppendGetsItsRound: one append and then silence. The kick
// it sends finds the dataset inside its quiet period; nothing else will
// ever kick, so the round starts only if the scheduler comes back by
// itself when the period is over.
func TestIsolatedAppendGetsItsRound(t *testing.T) {
	starts, started := countRoundStarts(t)
	reg := NewRegistry(Config{})
	defer reg.Close()
	h := NewHandler(reg)
	for _, name := range []string{"direct", "handler"} {
		m, err := reg.Create(name, DatasetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		recs := []dataset.Record{{Source: "s1", Item: "d1", Value: "a"}, {Source: "s2", Item: "d1", Value: "a"}}
		if name == "direct" {
			if _, _, err := m.Append(recs, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			postAppend(t, h, name, bytes.NewReader(appendJSON(t, recs)))
		}
		awaitRoundStart(t, started)
		if pub := quiesce(t, reg, name); pub == nil || pub.Version != 1 {
			t.Fatalf("%s: published %+v, want version 1", name, pub)
		}
	}
	if n := starts.Load(); n != 2 {
		t.Errorf("two isolated appends started %d rounds, want one each", n)
	}
}

// TestAppendMidBodyHoldsClaim: while one append request is inside the
// handler — here stuck halfway through its body — the scheduler claims
// nothing for that dataset, however long ago the last write was: the
// request is about to cancel whatever would start. Its end releases the
// claim.
func TestAppendMidBodyHoldsClaim(t *testing.T) {
	starts, started := countRoundStarts(t)
	reg := NewRegistry(Config{})
	defer reg.Close()
	h := NewHandler(reg)
	m, err := reg.Create("held", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg.Create("other", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}

	body := appendJSON(t, []dataset.Record{{Source: "s1", Item: "d2", Value: "b"}})
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		postAppend(t, h, "held", pr)
	}()
	// The pipe hands bytes over only to a Read: once this returns, the
	// handler is past appendBegin and waiting for the rest.
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	// Another append lands meanwhile and dirties the dataset.
	if _, _, err := m.Append([]dataset.Record{{Source: "s1", Item: "d1", Value: "a"}, {Source: "s2", Item: "d1", Value: "a"}}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * quietPeriod) // at least: the quiet period is not what holds the claim below
	if claimed, wait := reg.claimDirty(); claimed != nil || wait != 0 {
		t.Fatalf("claimDirty = %v, %v with an append mid-body; want nothing claimed and nothing to wait for", claimed, wait)
	}
	// The hold is per dataset: a neighbour gets its round meanwhile.
	if _, _, err := other.Append([]dataset.Record{{Source: "s1", Item: "d1", Value: "a"}}, nil); err != nil {
		t.Fatal(err)
	}
	awaitRoundStart(t, started)
	quiesce(t, reg, "other")
	if n := starts.Load(); n != 1 {
		t.Fatalf("%d rounds started while the append was mid-body, want only the neighbour's", n)
	}

	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
	awaitRoundStart(t, started)
	if pub := quiesce(t, reg, "held"); pub == nil || pub.Version != 2 || pub.Snapshot.NumObservations() != 3 {
		t.Fatalf("published %+v, want version 2 with 3 observations", pub)
	}
	if n := starts.Load(); n != 2 {
		t.Errorf("%d rounds started in all, want 2: the neighbour's and one after the held request ended", n)
	}
}
