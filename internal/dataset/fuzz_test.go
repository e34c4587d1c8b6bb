package dataset

import (
	"bytes"
	"testing"

	"copydetect/internal/binio"
)

// FuzzDecodeDataset hammers the binary snapshot decoder with arbitrary
// bytes: it must reject garbage with an error — never panic, never
// over-allocate on a hostile length prefix — and anything it does
// accept must be a valid dataset that round-trips through the encoder.
func FuzzDecodeDataset(f *testing.F) {
	// Seed with real encodings: empty, tiny with truth, and one with
	// multiple sources/values — plus a few deliberately broken variants.
	for _, ds := range []*Dataset{
		build(func(b *Builder) {}),
		build(func(b *Builder) {
			b.Add("s0", "d0", "v0")
			b.Add("s1", "d0", "v1")
			b.SetTruth("d0", "v0")
		}),
		build(func(b *Builder) {
			for _, s := range []string{"a", "b", "c"} {
				b.Add(s, "d0", "x")
				b.Add(s, "d1", s)
			}
		}),
	} {
		var buf bytes.Buffer
		w := binio.NewWriter(&buf)
		EncodeDataset(w, ds)
		if err := w.Err(); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])                      // truncated
		f.Add(append([]byte("CDS\x02"), raw[4:]...)) // wrong version byte
	}
	f.Add([]byte{})
	f.Add([]byte("CDS\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := DecodeDataset(binio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid dataset: %v", err)
		}
		var buf bytes.Buffer
		w := binio.NewWriter(&buf)
		EncodeDataset(w, ds)
		if err := w.Err(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeDataset(binio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("re-decode of accepted dataset failed: %v", err)
		}
		if back.NumSources() != ds.NumSources() || back.NumItems() != ds.NumItems() ||
			back.NumObservations() != ds.NumObservations() {
			t.Fatalf("round trip changed shape: %d/%d/%d -> %d/%d/%d",
				ds.NumSources(), ds.NumItems(), ds.NumObservations(),
				back.NumSources(), back.NumItems(), back.NumObservations())
		}
	})
}

func build(fill func(*Builder)) *Dataset {
	b := NewBuilder()
	fill(b)
	return b.Build()
}

// FuzzReadJSON is the differential target for the document scanner:
// whenever scanDocument answers a document itself, the encoding/json
// structs must accept the same bytes and build the same dataset; whatever
// it declines goes to those structs anyway, so "both reject" needs no
// check. ReadJSON itself must never panic and never return an invalid
// dataset.
func FuzzReadJSON(f *testing.F) {
	for _, doc := range jsonCases {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkScanDocument(t, string(doc))
		if ds, err := ReadJSON(bytes.NewReader(doc)); err == nil && ds.Validate() != nil {
			t.Fatalf("ReadJSON returned an invalid dataset: %v", ds.Validate())
		}
	})
}
