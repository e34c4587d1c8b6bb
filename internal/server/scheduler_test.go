package server

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// timedBody is a request body that records when it is first read.
type timedBody struct {
	r         io.Reader
	firstRead time.Time
}

func (b *timedBody) Read(p []byte) (int, error) {
	if b.firstRead.IsZero() {
		b.firstRead = time.Now()
	}
	return b.r.Read(p)
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
// A stall of the test's goroutine of a quiet period or more, between a
// write and the next append's begin, may start one more round, so the
// test counts such gaps; each start beyond the last round's needs one.
// Every round started is either published or counted as abandoned.
func TestBurstStartsNoDoomedRounds(t *testing.T) {
	starts, _ := countRoundStarts(t)
	reg := NewRegistry(Config{Options: core.Options{Workers: 2}})
	defer reg.Close()
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	h := NewHandler(reg)
	m, err := reg.Create("burst", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batches := testkit.Batches(dataset.Records(testkit.Generate(t, streamPreset)), 40)
	bodies := make([][]byte, len(batches))
	for i, batch := range batches {
		bodies[i] = appendJSON(t, batch)
	}
	// A round can start between two appends only if the next one's
	// begin — before its body's first read — is a quiet period or more
	// after the previous one's write.
	stalls := 0
	var lastWrite time.Time
	for i, body := range bodies {
		tb := &timedBody{r: bytes.NewReader(body)}
		postAppend(t, h, "burst", tb)
		if i > 0 && tb.firstRead.Sub(lastWrite) >= quietPeriod {
			stalls++
		}
		m.mu.Lock()
		lastWrite = m.lastWrite
		m.mu.Unlock()
	}
	pub := quiesce(t, reg, "burst")
	if pub == nil {
		t.Fatal("the burst published no round")
	}
	if n := starts.Load(); n < 1 || n > int64(1+stalls) {
		t.Errorf("%d appends back to back started %d rounds, want 1 and at most one more per stall (%d)", len(bodies), n, stalls)
	}
	// A round started in a stall may publish before the next append
	// arrives, so a burst can publish twice; pub.Round counts publishes.
	if got, want := counterValue(t, treg, "copydetectd_rounds_abandoned_total"), float64(starts.Load())-float64(pub.Round); got != want {
		t.Errorf("copydetectd_rounds_abandoned_total = %v, want %v: %d rounds started, %d published", got, want, starts.Load(), pub.Round)
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

// roundStart is one round reaching testHookRoundStart: its dataset and
// how many append requests were inside that dataset's handler then.
type roundStart struct {
	name      string
	appending int
}

// reportRoundStarts installs a testHookRoundStart that reports each
// round on the returned channel and then runs hook on the round's
// goroutine.
func reportRoundStarts(t *testing.T, hook func(*Managed)) <-chan roundStart {
	t.Helper()
	started := make(chan roundStart, 1024) // never blocks a round: far more than any test here starts
	testHookRoundStart = func(m *Managed) {
		m.mu.Lock()
		s := roundStart{m.name, m.appending}
		m.mu.Unlock()
		started <- s
		hook(m)
	}
	t.Cleanup(func() { testHookRoundStart = nil })
	return started
}

func nextRoundStart(t *testing.T, started <-chan roundStart) roundStart {
	t.Helper()
	select {
	case s := <-started:
		return s
	case <-time.After(30 * time.Second):
		t.Fatal("no detection round started")
		return roundStart{}
	}
}

// TestParkedClaimStartsNoDoomedRound: while one dataset's round runs,
// another is written to, goes quiet, and then gets an append request
// inside the handler. The scheduler once claimed it while the first
// round ran and parked the claim until a round slot was free, then
// started its round without looking again: a round the append in the
// handler was about to cancel. A claim is now followed at once by its
// round, so the next round goes to a ready neighbour, and the held
// dataset's round starts only after the request ends.
func TestParkedClaimStartsNoDoomedRound(t *testing.T) {
	release := make(chan struct{})
	started := reportRoundStarts(t, func(m *Managed) {
		if m.name == "a" {
			<-release
		}
	})
	reg := NewRegistry(Config{})
	defer reg.Close()
	defer close(release) // before Close, which waits for the held round
	sets := map[string]*Managed{}
	for _, name := range []string{"a", "b", "c"} {
		m, err := reg.Create(name, DatasetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = m
	}
	appendTo := func(name string) {
		t.Helper()
		if _, _, err := sets[name].Append([]dataset.Record{{Source: "s1", Item: "d1", Value: "a"}, {Source: "s2", Item: "d1", Value: "a"}}, nil); err != nil {
			t.Fatal(err)
		}
	}

	appendTo("a")
	if s := nextRoundStart(t, started); s.name != "a" {
		t.Fatalf("first round on %q, want a", s.name)
	}
	// a's round is held. b and c are written to and their quiet periods
	// pass (at least: a slow machine only makes this more true); then an
	// append request enters b's handler.
	appendTo("b")
	appendTo("c")
	time.Sleep(10 * quietPeriod)
	sets["b"].appendBegin()

	release <- struct{}{}
	if s := nextRoundStart(t, started); s.name != "c" || s.appending != 0 {
		t.Fatalf("after a's round, a round started on %q with %d appends in its handler; want c's, with none", s.name, s.appending)
	}
	quiesce(t, reg, "c")
	sets["b"].appendEnd()
	if s := nextRoundStart(t, started); s.name != "b" || s.appending != 0 {
		t.Fatalf("after b's request ended, a round started on %q with %d appends in its handler; want b's, with none", s.name, s.appending)
	}
	if pub := quiesce(t, reg, "b"); pub == nil || pub.Version != 1 {
		t.Fatalf("b published %+v, want version 1", pub)
	}
}

// TestRoundRobinClaims: two datasets that go dirty again as soon as
// each round starts take turns — each gets a round before the other
// gets two. Both are ready whenever a round ends (each round's hook
// outlasts the quiet period of its re-append), so a scan that started
// from the smallest name every time would give every round to the
// first dataset.
func TestRoundRobinClaims(t *testing.T) {
	const reappends = 6
	gate := make(chan struct{})
	var n atomic.Int64
	started := reportRoundStarts(t, func(m *Managed) {
		<-gate
		if n.Add(1) > reappends {
			return
		}
		if _, _, err := m.Append([]dataset.Record{{Source: "s3", Item: fmt.Sprint("r", n.Load()), Value: "v"}}, nil); err != nil {
			t.Error(err)
		}
		time.Sleep(2 * quietPeriod) // at least: the re-append is quiet when the round ends
	})
	reg := NewRegistry(Config{})
	defer reg.Close()
	for _, name := range []string{"a", "b"} {
		m, err := reg.Create(name, DatasetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Append([]dataset.Record{{Source: "s1", Item: "d1", Value: "a"}, {Source: "s2", Item: "d1", Value: "a"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(gate) // both datasets are dirty before the first round goes on

	// Every re-append takes its round away and asks for another, and the
	// last two rounds, one per dataset, publish.
	var order []string
	for i := 0; i < reappends+2; i++ {
		order = append(order, nextRoundStart(t, started).name)
	}
	for _, name := range []string{"a", "b"} {
		quiesce(t, reg, name)
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("rounds started in the order %v: %s got two in a row", order, order[i])
		}
	}
	select {
	case s := <-started:
		t.Fatalf("rounds started in the order %v, then one more on %s", order, s.name)
	default:
	}
}
