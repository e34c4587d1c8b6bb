package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

// do issues one request against the handler and decodes the JSON body.
func do(t *testing.T, srv *httptest.Server, method, path string, body any, out any, hdr http.Header) *http.Response {
	t.Helper()
	status, respHdr, raw, err := testkit.Do(srv.Client(), method, srv.URL+path, body, hdr)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	if out != nil && status != http.StatusNotModified {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, path, err)
		}
	}
	return &http.Response{StatusCode: status, Header: respHdr, Request: &http.Request{Method: method, URL: &url.URL{Path: path}}}
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
	}
}

// TestHTTPEndToEnd drives the full wire protocol against the paper's
// motivating example (Table I): create, stream, quiesce, read cached
// results with ETag revalidation, delete.
func TestHTTPEndToEnd(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	wantStatus(t, do(t, srv, http.MethodGet, "/healthz", nil, nil, nil), http.StatusOK)

	var list struct {
		Datasets []Info `json:"datasets"`
	}
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets", nil, &list, nil), http.StatusOK)
	if len(list.Datasets) != 0 {
		t.Fatalf("fresh registry lists %d datasets", len(list.Datasets))
	}

	var info Info
	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/motivating",
		createRequest{N: 50}, &info, nil), http.StatusCreated)
	if info.Name != "motivating" || info.Workers != 1 || info.Alpha != 0.1 || info.S != 0.8 || info.N != 50 {
		t.Fatalf("create info = %+v", info)
	}
	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/motivating", nil, nil, nil),
		http.StatusConflict)

	// The motivating example, streamed as one batch.
	ds, _ := dataset.Motivating()
	var appended appendResponse
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/motivating/observations",
		appendRequest{Observations: dataset.Records(ds)}, &appended, nil), http.StatusAccepted)
	if appended.Version != 1 || appended.Observations != ds.NumObservations() {
		t.Fatalf("append response = %+v", appended)
	}

	var stats statsResponse
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/motivating/quiesce", nil, &stats, nil),
		http.StatusOK)
	if !stats.Converged || stats.Round != 1 || stats.Algorithm != "INCREMENTAL" || stats.DetectRounds == 0 {
		t.Fatalf("quiesce stats = %+v", stats)
	}

	var copies copiesResponse
	resp := do(t, srv, http.MethodGet, "/v1/datasets/motivating/copies", nil, &copies, nil)
	wantStatus(t, resp, http.StatusOK)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("copies response has no ETag")
	}
	if !copies.Converged || len(copies.Pairs) == 0 {
		t.Fatalf("copies = %+v; the motivating example must detect copying", copies)
	}
	for _, pr := range copies.Pairs {
		if pr.Direction == "" || pr.S1 == pr.S2 {
			t.Fatalf("malformed pair %+v", pr)
		}
	}
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/motivating/copies", nil, nil,
		http.Header{"If-None-Match": {etag}}), http.StatusNotModified)

	var truth truthResponse
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/motivating/truth", nil, &truth, nil),
		http.StatusOK)
	if len(truth.Truth) != ds.NumItems() {
		t.Fatalf("truth decided for %d items, want %d", len(truth.Truth), ds.NumItems())
	}

	// A second append invalidates the cached ETag and, once quiesced,
	// republishes from a second round.
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/motivating/observations",
		appendRequest{Observations: []dataset.Record{{Source: "S9", Item: "NY", Value: "Albany"}}},
		nil, nil), http.StatusAccepted)
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/motivating/quiesce", nil, &stats, nil),
		http.StatusOK)
	if stats.Round != 2 || stats.Algorithm != "INCREMENTAL" || stats.ServedVersion != 2 {
		t.Fatalf("post-append stats = %+v", stats)
	}
	resp = do(t, srv, http.MethodGet, "/v1/datasets/motivating/copies", nil, &copies, nil)
	wantStatus(t, resp, http.StatusOK)
	if resp.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged after a new round")
	}

	wantStatus(t, do(t, srv, http.MethodDelete, "/v1/datasets/motivating", nil, nil, nil),
		http.StatusOK)
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/motivating", nil, nil, nil),
		http.StatusNotFound)

	// Recreating the name must not revive ETags of the deleted dataset:
	// a stale If-None-Match gets fresh data, not a 304.
	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/motivating", nil, nil, nil),
		http.StatusCreated)
	resp = do(t, srv, http.MethodGet, "/v1/datasets/motivating/copies", nil, &copies, nil)
	wantStatus(t, resp, http.StatusOK)
	if resp.Header.Get("ETag") == etag {
		t.Fatal("recreated dataset reuses the deleted dataset's ETag")
	}
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/motivating/copies", nil, nil,
		http.Header{"If-None-Match": {etag}}), http.StatusOK)
}

// TestHTTPErrors pins the error surface: unknown paths and datasets,
// wrong methods, malformed and empty bodies, invalid priors.
func TestHTTPErrors(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	cases := []struct {
		method, path, body string
		want               int
		msg                string // exact error message, when it is part of the protocol
	}{
		{method: http.MethodGet, path: "/nope", want: http.StatusNotFound},
		{method: http.MethodPost, path: "/healthz", want: http.StatusMethodNotAllowed, msg: "use GET"},
		{method: http.MethodPost, path: "/v1/datasets", want: http.StatusMethodNotAllowed},
		{method: http.MethodGet, path: "/v1/datasets/none/observations", want: http.StatusMethodNotAllowed, msg: "use POST"},
		{method: http.MethodPut, path: "/v1/datasets/none/copies", want: http.StatusMethodNotAllowed, msg: "use GET"},
		{method: http.MethodPost, path: "/v1/datasets/none/export", want: http.StatusMethodNotAllowed, msg: "use GET"},
		{method: http.MethodGet, path: "/v1/datasets/none/import", want: http.StatusMethodNotAllowed, msg: "use POST"},
		{method: http.MethodPatch, path: "/v1/datasets/none", want: http.StatusMethodNotAllowed, msg: "use PUT, GET or DELETE"},
		{method: http.MethodGet, path: "/v1/datasets/none/nope", want: http.StatusNotFound, msg: "unknown path"},
		{method: http.MethodGet, path: "/v1/datasets/", want: http.StatusNotFound},
		{method: http.MethodGet, path: "/v1/datasets/none", want: http.StatusNotFound},
		{method: http.MethodDelete, path: "/v1/datasets/none", want: http.StatusNotFound},
		{method: http.MethodGet, path: "/v1/datasets/none/copies", want: http.StatusNotFound},
		{method: http.MethodGet, path: "/v1/datasets/none/truth", want: http.StatusNotFound},
		{method: http.MethodGet, path: "/v1/datasets/none/stats", want: http.StatusNotFound},
		{method: http.MethodPost, path: "/v1/datasets/none/quiesce", want: http.StatusNotFound},
		{method: http.MethodPost, path: "/v1/datasets/none/observations", body: `{"observations":[]}`, want: http.StatusNotFound},
		{method: http.MethodGet, path: "/v1/datasets/x/y/z", want: http.StatusNotFound},
		{method: http.MethodPut, path: "/v1/datasets/bad", body: `{"alpha":2}`, want: http.StatusBadRequest},
		{method: http.MethodPut, path: "/v1/datasets/bad", body: `{not json`, want: http.StatusBadRequest},
		{method: http.MethodPut, path: "/v1/datasets/bad", body: `{"n":1}`, want: http.StatusBadRequest},
		{method: http.MethodGet, path: "/v1/datasets/bad", want: http.StatusNotFound}, // none of the above created it
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		} else if er.Error == "" || (c.msg != "" && er.Error != c.msg) {
			t.Errorf("%s %s: error message %q, want %q (or any, if empty)", c.method, c.path, er.Error, c.msg)
		}
	}

	// Method checks and body validation on an existing dataset.
	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/d", nil, nil, nil), http.StatusCreated)
	for _, c := range []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodGet, "/v1/datasets/d/observations", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/datasets/d/copies", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/datasets/d/truth", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/datasets/d/stats", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/datasets/d/quiesce", nil, http.StatusMethodNotAllowed},
		{http.MethodPatch, "/v1/datasets/d", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/datasets/d/observations", appendRequest{}, http.StatusBadRequest},
		{http.MethodPost, "/v1/datasets/d/observations",
			appendRequest{Observations: []dataset.Record{{Source: "s"}}}, http.StatusBadRequest},
		{http.MethodPost, "/v1/datasets/d/observations",
			appendRequest{Truth: []dataset.Record{{Item: "i"}}}, http.StatusBadRequest},
	} {
		wantStatus(t, do(t, srv, c.method, c.path, c.body, nil, nil), c.want)
	}

	// Reads on a dataset with no published round still succeed (round 0).
	var copies copiesResponse
	resp := do(t, srv, http.MethodGet, "/v1/datasets/d/copies", nil, &copies, nil)
	wantStatus(t, resp, http.StatusOK)
	if copies.Round != 0 || len(copies.Pairs) != 0 || !copies.Converged {
		t.Fatalf("round-0 copies = %+v", copies)
	}
	if want := fmt.Sprintf("%q", "d-g1-v0-r0"); resp.Header.Get("ETag") != want {
		t.Fatalf("round-0 ETag = %s, want %s", resp.Header.Get("ETag"), want)
	}
}

// TestETagCoversConverged: the read bodies carry "converged", so the
// tag must change when it flips. A round is published, then one more
// append waits behind a round held at testHookRoundStart: the same
// round, now unconverged, must come under a new tag ("-u"), so a client
// holding the converged tag gets the new body and not a 304.
func TestETagCoversConverged(t *testing.T) {
	release := make(chan struct{})
	defer func() { testHookRoundStart = nil }() // after the registry has closed
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/b", nil, nil, nil), http.StatusCreated)
	appendOne := func(item string) {
		wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/b/observations",
			appendRequest{Observations: []dataset.Record{{Source: "s1", Item: item, Value: "v"}}}, nil, nil),
			http.StatusAccepted)
	}
	appendOne("d1")
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/b/quiesce", nil, nil, nil), http.StatusOK)
	converged := fmt.Sprintf("%q", "b-g1-v1-r1")
	for _, ep := range []string{"copies", "truth"} {
		var body struct{ Converged bool }
		resp := do(t, srv, http.MethodGet, "/v1/datasets/b/"+ep, nil, &body, nil)
		if tag := resp.Header.Get("ETag"); tag != converged || !body.Converged {
			t.Fatalf("%s after quiesce: ETag %s, converged %v; want %s, true", ep, tag, body.Converged, converged)
		}
	}

	testHookRoundStart = func(*Managed) { <-release }
	appendOne("d2")
	unconverged := fmt.Sprintf("%q", "b-g1-v1-r1-u")
	for _, ep := range []string{"copies", "truth"} {
		var body struct{ Converged bool }
		resp := do(t, srv, http.MethodGet, "/v1/datasets/b/"+ep, nil, &body, nil)
		if tag := resp.Header.Get("ETag"); tag != unconverged || body.Converged {
			t.Fatalf("%s behind an append: ETag %s, converged %v; want %s, false", ep, tag, body.Converged, unconverged)
		}
		wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/b/"+ep, nil, &body,
			http.Header{"If-None-Match": {converged}}), http.StatusOK)
		if body.Converged {
			t.Fatalf("%s revalidated with the converged tag: body still claims converged", ep)
		}
		wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/b/"+ep, nil, nil,
			http.Header{"If-None-Match": {unconverged}}), http.StatusNotModified)
	}

	close(release)
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/b/quiesce", nil, nil, nil), http.StatusOK)
	if tag := do(t, srv, http.MethodGet, "/v1/datasets/b/copies", nil, nil, nil).Header.Get("ETag"); tag != fmt.Sprintf("%q", "b-g1-v2-r2") {
		t.Fatalf("after the second round: ETag %s", tag)
	}
}

// TestETagAcrossDeleteBetweenRounds pins cache correctness when a
// dataset disappears while a client is polling with a stored ETag: the
// deleted name 404s rather than 304ing, and a recreated dataset with
// the very same content never validates the old tag, because the
// creation generation is part of it.
func TestETagAcrossDeleteBetweenRounds(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	ds, _ := dataset.Motivating()
	recs := dataset.Records(ds)
	populate := func() {
		wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/books", nil, nil, nil),
			http.StatusCreated)
		wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/books/observations",
			appendRequest{Observations: recs}, nil, nil), http.StatusAccepted)
		wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/books/quiesce", nil, nil, nil),
			http.StatusOK)
	}
	populate()
	var first copiesResponse
	resp := do(t, srv, http.MethodGet, "/v1/datasets/books/copies", nil, &first, nil)
	wantStatus(t, resp, http.StatusOK)
	etag := resp.Header.Get("ETag")
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/books/copies", nil, nil,
		http.Header{"If-None-Match": {etag}}), http.StatusNotModified)

	// The dataset is deleted between the client's polls.
	wantStatus(t, do(t, srv, http.MethodDelete, "/v1/datasets/books", nil, nil, nil), http.StatusOK)
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/books/copies", nil, nil,
		http.Header{"If-None-Match": {etag}}), http.StatusNotFound)

	// Same name, same content, same version and round numbers — but a
	// different incarnation: the stale tag must NOT validate, and the
	// fresh tag must differ even though the payload is identical.
	populate()
	var second copiesResponse
	resp = do(t, srv, http.MethodGet, "/v1/datasets/books/copies", nil, &second,
		http.Header{"If-None-Match": {etag}})
	wantStatus(t, resp, http.StatusOK)
	if resp.Header.Get("ETag") == etag {
		t.Fatal("recreated dataset reissued the deleted incarnation's ETag")
	}
	if second.Version != first.Version || second.Round != first.Round {
		t.Fatalf("recreated dataset at version %d round %d, want %d/%d (otherwise the test is vacuous)",
			second.Version, second.Round, first.Version, first.Round)
	}
}

// TestDuplicateCreateKeepsVersionCounter is the regression test for the
// duplicate-name fix: a second PUT for an existing dataset must 409 and
// leave the original's append version, config and published state
// untouched — not silently reset the dataset.
func TestDuplicateCreateKeepsVersionCounter(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/books",
		createRequest{Alpha: 0.2}, nil, nil), http.StatusCreated)
	ds, _ := dataset.Motivating()
	for _, rec := range dataset.Records(ds)[:3] {
		wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/books/observations",
			appendRequest{Observations: []dataset.Record{rec}}, nil, nil), http.StatusAccepted)
	}

	// Converge first: a round publishing between the two reads below
	// changes Info for a reason that is not the duplicate creates.
	wantStatus(t, do(t, srv, http.MethodPost, "/v1/datasets/books/quiesce", nil, nil, nil), http.StatusOK)
	var before Info
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/books", nil, &before, nil), http.StatusOK)
	if before.Version != 3 {
		t.Fatalf("setup: version = %d, want 3", before.Version)
	}

	// Duplicate creates, with and without a (different) config body.
	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/books", nil, nil, nil),
		http.StatusConflict)
	wantStatus(t, do(t, srv, http.MethodPut, "/v1/datasets/books",
		createRequest{Alpha: 0.3, N: 50}, nil, nil), http.StatusConflict)

	var after Info
	wantStatus(t, do(t, srv, http.MethodGet, "/v1/datasets/books", nil, &after, nil), http.StatusOK)
	if after != before {
		t.Fatalf("duplicate create mutated the dataset:\n before %+v\n after  %+v", before, after)
	}
}
