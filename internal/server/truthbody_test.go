package server

import (
	"bytes"
	"strings"
	"testing"

	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
)

// truthOf is the …/truth response of dataset name at round pub (nil
// before the first round): encoded with encodeJSON, the reference the
// bodies appendTruth writes must equal.
func truthOf(name string, pub *Published, converged bool) truthResponse {
	resp := truthResponse{Dataset: name, Converged: converged, Truth: map[string]string{}}
	if pub != nil {
		resp.Version, resp.Round = pub.Version, pub.Round
		for d, val := range pub.Outcome.Truth {
			if val != dataset.NoValue {
				resp.Truth[pub.Snapshot.ItemNames[d]] = pub.Snapshot.ValueNames[d][val]
			}
		}
	}
	return resp
}

// FuzzTruthBody is differential: the …/truth body appendTruth writes for
// a published round, and the unconverged body derived from it, must be
// the bytes encodeJSON writes for that round's truthResponse. items
// lists the round's items with "\x1e" between two: an item name, then
// "\x1f" and the name of its decided value, or no "\x1f" for an item
// without one (NoValue). A repeated item name is skipped, since a
// dataset interns its names. The committed seeds hold names JSON must
// escape, undecided items and a round without items.
//
//	go test -run '^$' -fuzz FuzzTruthBody -fuzztime 10s ./internal/server
func FuzzTruthBody(f *testing.F) {
	f.Add("d", "x\x1f1\x1ey", true)
	f.Fuzz(func(t *testing.T, name, items string, converged bool) {
		snap, out := &dataset.Dataset{}, &fusion.Outcome{}
		seen := map[string]bool{}
		for _, it := range strings.Split(items, "\x1e") {
			item, value, decided := strings.Cut(it, "\x1f")
			if items == "" || seen[item] {
				continue
			}
			seen[item] = true
			truth := dataset.ValueID(0)
			if !decided {
				truth = dataset.NoValue
			}
			snap.ItemNames = append(snap.ItemNames, item)
			snap.ValueNames = append(snap.ValueNames, []string{value})
			out.Truth = append(out.Truth, truth)
		}
		pub := &Published{Version: uint64(len(items)), Round: len(out.Truth), Snapshot: snap, Outcome: out}
		got := appendTruth(nil, name, pub)
		if !converged {
			got = unconverged(got)
		}
		if want := encodeJSON(truthOf(name, pub, converged)); !bytes.Equal(got, want) {
			t.Fatalf("dataset %q, items %q, converged %v:\n%s\nwant\n%s", name, items, converged, got, want)
		}
	})
}
