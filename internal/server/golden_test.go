package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"copydetect/internal/dataset"
)

// The files under testdata/golden were written by the commit before the
// columnar Builder and the binio fast paths (PR 16, 1c55c9b): a snapshot
// file as the compactor left it, one WAL append record, one export blob,
// all of the same dataset — the motivating example arriving out of
// source order, with an overwritten cell, non-ASCII names and a truth
// nobody provides. Each must decode, and what it decodes to must encode
// back to the very same bytes: the three on-disk and on-wire formats did
// not move, so a data directory written by that commit opens unchanged.

func golden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestGoldenSnapshot(t *testing.T) {
	want := golden(t, "snapshot.bin")
	pub, err := readSnapshot(filepath.Join("testdata", "golden", "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version != 2 || pub.Round != 1 || pub.Algorithm != "HYBRID" || pub.Snapshot.NumObservations() != 46 ||
		pub.Snapshot.NumSources() != 11 || pub.Snapshot.NumItems() != 6 || len(pub.Outcome.Copy.CopyingPairs()) == 0 {
		t.Fatalf("snapshot decoded to version %d round %d %s, %s, %d copying pairs",
			pub.Version, pub.Round, pub.Algorithm, dataset.Summarize(pub.Snapshot), len(pub.Outcome.Copy.CopyingPairs()))
	}
	st := &dstore{dir: t.TempDir()}
	if err := st.writeSnapshot(pub); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(snapPath(st.dir, pub.Version))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the decoded snapshot does not encode back to the file's bytes")
	}
	// The Builder made from it continues the stream: its own Build is the
	// snapshot's dataset again, byte for byte in the same codec.
	again := *pub
	again.Snapshot = dataset.NewBuilderFromDataset(pub.Snapshot).Build()
	if err := st.writeSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(snapPath(st.dir, pub.Version)); !bytes.Equal(got, want) {
		t.Fatal("a Builder rebuilt from the snapshot builds a dataset that encodes differently")
	}
}

func TestGoldenWALAppendRecord(t *testing.T) {
	want := golden(t, "wal-append.bin")
	rec, err := decodeWALRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	if rec.kind != walRecAppend || rec.version != 2 || len(rec.obs) != 24 || len(rec.truth) != 2 ||
		rec.obs[21] != (dataset.Record{Source: "S0", Item: "NJ", Value: `Trénton "x"`}) ||
		rec.truth[1] != (dataset.Record{Item: "WY", Value: "Cheyenne"}) {
		t.Fatalf("record decoded to %+v", rec)
	}
	if got := rec.encode(); !bytes.Equal(got, want) {
		t.Fatal("the decoded record does not encode back to its bytes")
	}
}

func TestGoldenExport(t *testing.T) {
	want := golden(t, "export.bin")
	cfg, state, err := decodeExport(want)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 2 || state.version != 2 || state.round != 1 || state.ds.NumObservations() != 46 {
		t.Fatalf("export decoded to %+v, version %d round %d, %s", cfg, state.version, state.round, dataset.Summarize(state.ds))
	}
	got, err := encodeExport(cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the decoded export does not encode back to its bytes")
	}
}
