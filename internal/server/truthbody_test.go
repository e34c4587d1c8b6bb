package server

import (
	"bytes"
	"fmt"
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

// TestTruthOrderCarriedAcrossPublishes: a round's …/truth body lists the
// items in name order without sorting them all again: newPublished merges
// the items added since the last round into that round's order. Across
// several publishes — new names sorting before, between and after the old
// ones — and an import, which numbers the items afresh in another order,
// every body must be the bytes encodeJSON writes.
func TestTruthOrderCarriedAcrossPublishes(t *testing.T) {
	obs := func(items ...string) []dataset.Record {
		var recs []dataset.Record
		for i, it := range items {
			for _, s := range []string{"s1", "s2", "s3"} {
				recs = append(recs, dataset.Record{Source: s, Item: it, Value: fmt.Sprint("v", i%2)})
			}
		}
		return recs
	}
	reg := NewRegistry(Config{})
	defer reg.Close()
	m, err := reg.Create("d", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		pub := quiesce(t, reg, "d")
		if want := encodeJSON(truthOf("d", pub, true)); !bytes.Equal(pub.reads.truth[0], want) {
			t.Fatalf("%s: truth body\n%s\nwant\n%s", step, pub.reads.truth[0], want)
		}
	}
	for i, items := range [][]string{
		{"m", "k", "p"},
		{"a", "n", "z"},        // before, between, after
		{"b", "a1", "zz", "l"}, // more of each, one per gap
	} {
		if _, _, err := m.Append(obs(items...), nil); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("append %d", i+1))
	}

	// An import from a dataset that met the same items in another order:
	// other item ids, so the carried order must not be used.
	other := NewRegistry(Config{})
	defer other.Close()
	o, err := other.Create("d", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range [][]string{{"zz", "p", "a"}, {"n", "b", "m", "a1", "z", "l", "k"}, {"c"}, {"y"}, {"d"}} {
		if _, _, err := o.Append(obs(items...), nil); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := o.Export()
	if err != nil {
		t.Fatal(err)
	}
	if applied, _, err := reg.Import("d", blob); err != nil || !applied {
		t.Fatalf("import: applied %v, %v", applied, err)
	}
	check("import")
	if _, _, err := m.Append(obs("0", "e", "zzz"), nil); err != nil {
		t.Fatal(err)
	}
	check("append after the import")
}
