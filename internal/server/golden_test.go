package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
	"copydetect/internal/wal"
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
	params, state, err := decodeExport(want)
	if err != nil {
		t.Fatal(err)
	}
	if params != bayes.DefaultParams() || state.version != 2 || state.round != 1 || state.ds.NumObservations() != 46 {
		t.Fatalf("export decoded to %+v, version %d round %d, %s", params, state.version, state.round, dataset.Summarize(state.ds))
	}
	// The exporter ran 2 workers; the blob's worker slot still says so,
	// and an importer reads past it.
	got, err := encodeExport(params, 2, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the decoded export does not encode back to its bytes")
	}
}

// wal-publish-markers.wal is a whole WAL segment as the commit before
// PR 25 (db66dcb) left it after a crash with no snapshot: three appends
// of the same motivating example, each followed by the kind-2 publish
// marker of the round that covered it — the record kind that commit
// wrote inside every publish and nothing writes now. A data directory
// holding it must open, and what it recovers to and then publishes must
// be what a log of the three appends alone recovers to and publishes.
func TestGoldenWALWithPublishMarkers(t *testing.T) {
	const name, segment = "golden", "0000000000000001.wal"
	testNoCompactOffer = true
	defer func() { testNoCompactOffer = false }()
	open := func(dir string) *Registry {
		reg, err := Open(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	// The marker-free twin: the golden segment's appends through today's
	// write path, crashed before any snapshot.
	plainDir := t.TempDir()
	plain := open(plainDir)
	m, err := plain.Create(name, DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dsDir := filepath.Join(datasetsRoot(plainDir), encodeDirName(name))
	config, err := os.ReadFile(filepath.Join(dsDir, "config.json"))
	if err != nil {
		t.Fatal(err)
	}

	goldenDir := t.TempDir()
	goldenDS := filepath.Join(datasetsRoot(goldenDir), encodeDirName(name))
	if err := os.MkdirAll(filepath.Join(goldenDS, "wal"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDS, "config.json"), config, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDS, "wal", segment), golden(t, "wal-publish-markers.wal"), 0o666); err != nil {
		t.Fatal(err)
	}

	kinds := map[byte]int{}
	log, err := wal.Open(filepath.Join(goldenDS, "wal"), wal.Options{}, func(_ uint64, payload []byte) error {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		kinds[rec.kind]++
		if rec.kind == walRecAppend {
			_, _, err = m.Append(rec.obs, rec.truth)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if kinds[walRecAppend] != 3 || kinds[walRecPublish] != 3 || len(kinds) != 2 {
		t.Fatalf("golden segment holds records by kind %v, want 3 appends and 3 publish markers", kinds)
	}
	crash(plain)

	regG, regP := open(goldenDir), open(plainDir)
	defer regG.Close()
	defer regP.Close()
	var states [2][]any
	var pubs [2]*Published
	for i, reg := range []*Registry{regG, regP} {
		m, ok := reg.Get(name)
		if !ok {
			t.Fatal("dataset lost")
		}
		states[i] = captureState(t, m)
		pubs[i] = quiesce(t, reg, name)
	}
	if d := testkit.Diff(states[0], states[1], unserved...); d != "" {
		t.Fatalf("the log with publish markers recovers to a different state than the log without: %s", d)
	}
	g, p := pubs[0], pubs[1]
	if g == nil || g.Version != 3 || g.Round != 1 || g.Algorithm != "INCREMENTAL" || g.Snapshot.NumObservations() != 45 || len(g.Outcome.Copy.CopyingPairs()) == 0 {
		t.Fatalf("the log with publish markers published %+v, want round 1 of version 3 on the motivating example", g)
	}
	if d := testkit.Diff(g, p, append(untimed, "Wall")...); d != "" {
		t.Fatalf("the log with publish markers publishes a different round than the log without: %s", d)
	}
}
