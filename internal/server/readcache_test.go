package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

// TestReadBodiesRenderedOncePerTag: two reads of one (published round,
// converged) pair get the very same bytes — one backing array, rendered
// once — the other convergence flag of that round gets its own, and a
// new publish renders anew.
func TestReadBodiesRenderedOncePerTag(t *testing.T) {
	defer func() { testHookRoundStart = nil }() // after the registry has closed
	reg := NewRegistry(Config{})
	defer reg.Close()
	m, err := reg.Create("r", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := dataset.Motivating()
	appendRecs := func(recs []dataset.Record) {
		t.Helper()
		if _, _, err := m.Append(recs, nil); err != nil {
			t.Fatal(err)
		}
	}
	quiesce := func() {
		t.Helper()
		if _, err := reg.Quiesce(context.Background(), "r"); err != nil {
			t.Fatal(err)
		}
	}
	read := func() (copies, truth []byte) {
		v := m.readView()
		return v.copies, v.truth
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	appendRecs(dataset.Records(ds))
	quiesce()
	c1, t1 := read()
	c2, t2 := read()
	if !same(c1, c2) || !same(t1, t2) {
		t.Fatal("two reads of one round and flag rendered their bodies twice")
	}
	pub := m.Published()
	if want := encodeJSON(truthOf("r", pub, true)); !bytes.Equal(t1, want) {
		t.Fatalf("cached truth body differs from a fresh render:\n%s\nwant\n%s", t1, want)
	}

	// One more append, its round held: the same round, unconverged.
	release := make(chan struct{})
	testHookRoundStart = func(*Managed) { <-release }
	appendRecs([]dataset.Record{{Source: "S9", Item: "NY", Value: "Albany"}})
	cu, tu := read()
	if same(cu, c1) || same(tu, t1) || !bytes.Contains(cu, []byte(`"converged": false`)) {
		t.Fatal("the unconverged read of a round shares the converged body")
	}
	if c, tr := read(); !same(c, cu) || !same(tr, tu) {
		t.Fatal("two unconverged reads of one round rendered their bodies twice")
	}
	close(release)

	quiesce()
	c3, t3 := read()
	if same(c3, c1) || same(t3, t1) || same(c3, cu) || same(t3, tu) {
		t.Fatal("a new publish served the previous round's bodies")
	}
	if m.Published() == pub || bytes.Equal(c3, c1) {
		t.Fatal("the append did not publish a different round")
	}
}

// TestPollAfterAppendRendersNothing: the polls that follow an append,
// while the round that covers it is held at testHookRoundStart, serve
// the published round's unconverged bodies — encodeJSON's bytes for that
// round with converged false — and render nothing: every body was
// rendered before its round was published, once per round.
func TestPollAfterAppendRendersNothing(t *testing.T) {
	var renders atomic.Int64
	testHookRender = func() { renders.Add(1) }
	defer func() { testHookRender, testHookRoundStart = nil, nil }() // after the registry has closed
	reg := NewRegistry(Config{})
	defer reg.Close()
	h := NewHandler(reg)
	m, err := reg.Create("a", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := dataset.Motivating()
	if _, _, err := m.Append(dataset.Records(ds), nil); err != nil {
		t.Fatal(err)
	}
	pub, err := reg.Quiesce(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	poll := func(converged bool) {
		t.Helper()
		for _, ep := range []string{"copies", "truth"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets/a/"+ep, nil))
			var resp any = copiesOf("a", pub, converged)
			if ep == "truth" {
				resp = truthOf("a", pub, converged)
			}
			if want := encodeJSON(resp); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s, converged %v: status %d\n%s\nwant\n%s", ep, converged, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}

	before := renders.Load()
	poll(true)
	release := make(chan struct{})
	testHookRoundStart = func(*Managed) { <-release }
	if _, _, err := m.Append([]dataset.Record{{Source: "S9", Item: "NY", Value: "Albany"}}, nil); err != nil {
		t.Fatal(err)
	}
	poll(false)
	poll(false)
	if n := renders.Load() - before; n != 0 {
		t.Fatalf("the polls of a published round rendered %d times", n)
	}
	close(release)
	if _, err := reg.Quiesce(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if n := renders.Load() - before; n != 1 {
		t.Fatalf("the round covering the append rendered %d times, want once", n)
	}
}

// TestReadsDuringPublishes polls …/copies and …/truth from several
// goroutines while appends land and rounds publish (run it with -race).
// Every body must be a fresh render of the round and convergence flag
// its own ETag names: the cache may never serve one tag's body under
// another.
func TestReadsDuringPublishes(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	h := NewHandler(reg)
	m, err := reg.Create("p", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Records(testkit.Generate(t, testkit.Lookup("stock-1day-x0.008")[0]))

	// seen holds the body each read of an (endpoint, ETag) returned.
	type read struct{ ep, etag string }
	var mu sync.Mutex
	seen := map[read][]byte{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ep := range []string{"copies", "truth"} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets/p/"+ep, nil))
					key := read{ep, rec.Header().Get("ETag")}
					mu.Lock()
					if prev, ok := seen[key]; ok && !bytes.Equal(prev, rec.Body.Bytes()) {
						t.Errorf("%s under %s: two different bodies", ep, key.etag)
					}
					seen[key] = rec.Body.Bytes()
					mu.Unlock()
				}
			}
		}()
	}

	// Each append is followed by exactly one publish, which Quiesce
	// returns: pubs holds every round the readers can have seen.
	pubs := map[int]*Published{0: nil}
	for _, batch := range testkit.Batches(recs, 12) {
		if _, _, err := m.Append(batch, nil); err != nil {
			t.Fatal(err)
		}
		pub, err := reg.Quiesce(context.Background(), "p")
		if err != nil {
			t.Fatal(err)
		}
		pubs[pub.Round] = pub
	}
	close(stop)
	wg.Wait()

	tag := regexp.MustCompile(`^"p-g1-v\d+-r(\d+)(-u)?"$`)
	unconverged := 0
	for key, body := range seen {
		sub := tag.FindStringSubmatch(key.etag)
		if sub == nil {
			t.Fatalf("unexpected ETag %s", key.etag)
		}
		round, _ := strconv.Atoi(sub[1])
		pub, ok := pubs[round]
		if !ok {
			t.Fatalf("ETag %s names a round that was never published", key.etag)
		}
		converged := sub[2] == ""
		var resp any = copiesOf("p", pub, converged)
		if key.ep == "truth" {
			resp = truthOf("p", pub, converged)
		}
		if want := encodeJSON(resp); !bytes.Equal(body, want) {
			t.Errorf("%s under %s is not the render of that round and flag:\n%s\nwant\n%s", key.ep, key.etag, body, want)
		}
		if !converged {
			unconverged++
		}
	}
	t.Logf("%d distinct (endpoint, ETag) pairs read, %d of them unconverged, %d rounds", len(seen), unconverged, len(pubs)-1)
}
