package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"copydetect/internal/dataset"
)

// TestReadBodiesGolden serves …/copies and …/truth in four states and
// compares every body, on a first and on a repeated read, byte for byte
// with testdata/golden/read-<state>-<endpoint>.json. Those files were
// written by this test against the handler of the commit before read
// bodies were cached (bd09c3c), which encoded every body on every
// request. The states: before the first round; the motivating example
// converged; the same round once one more append is waiting (its round
// held at testHookRoundStart); and the motivating example with source,
// item and value names that JSON must escape. Regenerate (only after a
// deliberate change of the wire format) with UPDATE_GOLDEN=1.
func TestReadBodiesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The bodies carry probabilities, whose bits are amd64's
		// (ROADMAP item 3).
		t.Skipf("read bodies are recorded on amd64; GOARCH=%s", runtime.GOARCH)
	}
	release := make(chan struct{})
	defer func() { testHookRoundStart = nil }() // after the registry has closed
	reg := NewRegistry(Config{})
	defer reg.Close()
	h := NewHandler(reg)

	check := func(state, name string) {
		t.Helper()
		for _, ep := range []string{"copies", "truth"} {
			path := filepath.Join("testdata", "golden", "read-"+state+"-"+ep+".json")
			for read := 0; read < 2; read++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/datasets/"+name+"/"+ep, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d", state, ep, rec.Code)
				}
				if os.Getenv("UPDATE_GOLDEN") != "" {
					if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if want := golden(t, filepath.Base(path)); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s %s, read %d: body differs from %s:\n%s", state, ep, read+1, path, rec.Body.Bytes())
				}
			}
		}
	}
	appendAll := func(name string, recs []dataset.Record) {
		t.Helper()
		m, ok := reg.Get(name)
		if !ok {
			t.Fatalf("no dataset %q", name)
		}
		if _, _, err := m.Append(recs, nil); err != nil {
			t.Fatal(err)
		}
	}

	ds, _ := dataset.Motivating()
	for _, name := range []string{"motivating", "escaped"} {
		if _, err := reg.Create(name, DatasetConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	check("empty", "motivating")

	appendAll("motivating", dataset.Records(ds))
	escape := strings.NewReplacer("S", `S"\<`, "Tempe", "Tempe&>é", "Phoenix", `Phœnix\"`, "AZ", "AZ<日本>")
	var escaped []dataset.Record
	for _, r := range dataset.Records(ds) {
		escaped = append(escaped, dataset.Record{Source: escape.Replace(r.Source), Item: escape.Replace(r.Item), Value: escape.Replace(r.Value)})
	}
	appendAll("escaped", escaped)
	for _, name := range []string{"motivating", "escaped"} {
		if _, err := reg.Quiesce(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	check("converged", "motivating")
	check("escaped", "escaped")

	testHookRoundStart = func(*Managed) { <-release }
	appendAll("motivating", []dataset.Record{{Source: "S9", Item: "NY", Value: "Albany"}})
	check("unconverged", "motivating")
	close(release)
}
