package dataset

import (
	"bytes"
	"reflect"
	"testing"

	"copydetect/internal/binio"
)

func encodeRoundtrip(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	EncodeDataset(w, ds)
	if err := w.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeDataset(binio.NewReader(&buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestBinaryRoundtrip(t *testing.T) {
	ds, _ := Motivating()
	if got := encodeRoundtrip(t, ds); !reflect.DeepEqual(got, ds) {
		t.Fatal("motivating dataset did not survive the binary roundtrip")
	}

	// With truth, sparse coverage and multi-value domains.
	b := NewBuilder()
	b.Add("s1", "d1", "a")
	b.Add("s1", "d2", "b")
	b.Add("s2", "d1", "c")
	b.Add("s3", "d3", "a")
	b.SetTruth("d1", "a")
	b.SetTruth("d3", "x") // truth value nobody provides
	ds = b.Build()
	if got := encodeRoundtrip(t, ds); !reflect.DeepEqual(got, ds) {
		t.Fatal("dataset with truth did not survive the binary roundtrip")
	}

	// Empty dataset.
	ds = NewBuilder().Build()
	if got := encodeRoundtrip(t, ds); !reflect.DeepEqual(got, ds) {
		t.Fatal("empty dataset did not survive the binary roundtrip")
	}
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("not a dataset"),
		{0x04, 'C', 'D', 'S', 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // huge source count
	} {
		if _, err := DecodeDataset(binio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Errorf("DecodeDataset(%q) accepted garbage", raw)
		}
	}
	// Truncated valid prefix.
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	ds, _ := Motivating()
	EncodeDataset(w, ds)
	if _, err := DecodeDataset(binio.NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))); err == nil {
		t.Error("DecodeDataset accepted a truncated stream")
	}
}

// TestNewBuilderFromDataset pins the recovery property: reconstructing
// a Builder from a snapshot and continuing to append yields the exact
// dataset (same id assignment) as the uninterrupted builder.
func TestNewBuilderFromDataset(t *testing.T) {
	stream := []Record{
		{"s2", "d1", "v1"}, {"s1", "d3", "v2"}, {"s2", "d2", "v1"},
		{"s3", "d1", "v3"}, {"s1", "d1", "v1"}, {"s3", "d4", "v2"},
	}
	tail := []Record{
		{"s4", "d2", "v9"}, {"s1", "d5", "v1"}, {"s2", "d1", "v7"}, // overwrite too
	}

	full := NewBuilder()
	full.AddRecords(stream)
	full.SetTruth("d1", "v1")
	snap := full.Build() // "the snapshot"
	full.AddRecords(tail)
	full.SetTruth("d5", "v1")
	want := full.Build()

	recovered := NewBuilderFromDataset(snap)
	if got := recovered.Build(); !reflect.DeepEqual(got, snap) {
		t.Fatal("rebuilding straight from the snapshot changed the dataset")
	}
	recovered.AddRecords(tail)
	recovered.SetTruth("d5", "v1")
	if got := recovered.Build(); !reflect.DeepEqual(got, want) {
		t.Fatal("appends on the recovered builder diverge from the uninterrupted builder")
	}
}
