// Tests for the one write path (ISSUE 15): every state change is a WAL
// record that is committed once and applied once, by the same code for
// live traffic and crash replay.
package server

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

// crash stops a registry's goroutines the way process death would —
// no final snapshot, no WAL close, no dataset marked closed — except
// that in-flight rounds run to completion first, so nothing of the
// abandoned registry writes to the directory a successor recovers from.
func crash(r *Registry) {
	close(r.stop)
	r.wg.Wait()
}

// captureState is what recovery must reproduce exactly: the appended
// state as Export serializes it (dataset bits, version), and Info.
func captureState(t *testing.T, m *Managed) []any {
	t.Helper()
	blob, err := m.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	cfg, state, err := decodeExport(blob)
	if err != nil {
		t.Fatalf("decode export: %v", err)
	}
	return []any{cfg, state, m.Info()}
}

// unserved masks what legitimately differs after a crash: the served round
// — the newest snapshot may be rounds behind the WAL — with its ordinal,
// which the export carries.
var unserved = []string{"Converged", "ServedVersion", "Round", "Algorithm", "round"}

// TestReplayEqualsLive drives a seeded random interleaving of appends
// (with and without truths, sequenced and not, duplicates included),
// anti-entropy imports and quiesces through a durable registry whose WAL
// rotates after every record, crashes it at random points, and requires
// the recovered registry to hold exactly the state the live one held —
// then, after one more append on both, to publish exactly what a
// never-interrupted control registry fed the same operations publishes.
func TestReplayEqualsLive(t *testing.T) {
	testWALSegmentBytes = 64
	defer func() { testWALSegmentBytes = 0 }()
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { replayEqualsLive(t, seed) })
	}
}

func replayEqualsLive(t *testing.T, seed int64) {
	const name = "x"
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := Config{Options: core.Options{Workers: 1}}
	ctl := NewRegistry(cfg) // the uninterrupted process
	defer ctl.Close()
	peer := NewRegistry(cfg) // the replication peer imports come from
	defer peer.Close()
	live := openDurable(t, dir, 1)
	defer func() { live.Close() }()
	for _, r := range []*Registry{ctl, live} {
		if _, err := r.Create(name, DatasetConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(r *Registry) *Managed {
		m, ok := r.Get(name)
		if !ok {
			t.Fatal("dataset lost")
		}
		return m
	}
	randomBatch := func() (obs, truth []dataset.Record) {
		for i, n := 0, rng.Intn(6); i < n; i++ {
			obs = append(obs, dataset.Record{
				Source: fmt.Sprintf("s%d", rng.Intn(6)),
				Item:   fmt.Sprintf("d%d", rng.Intn(8)),
				Value:  fmt.Sprintf("v%d", rng.Intn(3)),
			})
		}
		for i, n := 0, rng.Intn(3); i < n || len(obs)+len(truth) == 0; i++ {
			truth = append(truth, dataset.Record{Item: fmt.Sprintf("d%d", rng.Intn(8)), Value: fmt.Sprintf("v%d", rng.Intn(3))})
		}
		return obs, truth
	}
	// Every operation goes to the live and the control registry alike.
	appendBoth := func(seqDelta int) {
		obs, truth := randomBatch()
		var seq uint64
		if seqDelta >= 0 {
			seq = get(live).Info().Version + uint64(seqDelta) // +1 the next append, +0 a duplicate delivery
		}
		for _, r := range []*Registry{live, ctl} {
			if _, _, applied, err := get(r).AppendSeq(obs, truth, seq); err != nil || applied != (seqDelta != 0) {
				t.Fatalf("append seq %d: applied=%v err=%v", seq, applied, err)
			}
		}
	}
	importBoth := func() {
		blob, err := get(live).Export()
		if err != nil {
			t.Fatal(err)
		}
		peer.Delete(name)
		if _, _, err := peer.Import(name, blob); err != nil {
			t.Fatal(err)
		}
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			obs, truth := randomBatch()
			if _, _, err := get(peer).Append(obs, truth); err != nil {
				t.Fatal(err)
			}
		}
		if blob, err = get(peer).Export(); err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Registry{live, ctl} {
			if applied, _, err := r.Import(name, blob); err != nil || !applied {
				t.Fatalf("import: applied=%v err=%v", applied, err)
			}
		}
	}
	quiesceBoth := func() (got, want *Published) {
		return quiesce(t, live, name), quiesce(t, ctl, name)
	}
	crashAndCompare := func() {
		crash(live)
		want := captureState(t, get(live))
		// Replay without a scheduler first, so the state compared is the
		// state recovery built and nothing a round did since.
		bare := &Registry{cfg: live.cfg}
		rec, err := bare.recoverDataset(filepath.Join(datasetsRoot(dir), encodeDirName(name)))
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		got := captureState(t, rec)
		rec.st.close(false)
		live = openDurable(t, dir, 1)
		if d := testkit.Diff(got, want, unserved...); d != "" {
			t.Fatalf("recovered export or info differs from the live registry's at the crash point: %s", d)
		}
		// One more append gets a fresh round on the same final state on
		// both sides. Its ordinal may differ, and so may the read bodies
		// and tags that carry it.
		appendBoth(-1)
		pub, ref := quiesceBoth()
		if d := testkit.Diff(pub, ref, append(untimed, "Round", "Wall", "reads")...); d != "" {
			t.Fatalf("after recovery the published round differs from the uninterrupted registry's: %s", d)
		}
	}

	crashes := 0
	for op := 0; op < 60; op++ {
		switch k := rng.Intn(10); {
		case k < 3:
			appendBoth(-1)
		case k < 5:
			appendBoth(1)
		case k == 5:
			appendBoth(0)
		case k == 6:
			importBoth()
		case k < 9:
			quiesceBoth()
		default:
			crashAndCompare()
			crashes++
		}
	}
	crashAndCompare() // whatever the tail of the run left un-snapshotted
	t.Logf("seed %d: %d crashes", seed, crashes+1)
}

// FuzzDecodeWALRecord: WAL payloads cross a disk boundary. The decoder
// must never panic or allocate past what the payload can hold, and
// whatever it accepts of a kind still written must re-encode to a
// payload that decodes to the same record.
func FuzzDecodeWALRecord(f *testing.F) {
	_, golden := walRecordFixtures()
	for _, g := range golden {
		payload, err := hex.DecodeString(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{walRecAppend, 1, 0xff, 0xff, 0xff, 0x1f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil || rec.kind == walRecPublish { // decoded from older logs, never encoded
			return
		}
		if len(rec.obs) > len(payload) || len(rec.truth) > len(payload) {
			t.Fatalf("%d-byte payload decoded to %d observations and %d truths", len(payload), len(rec.obs), len(rec.truth))
		}
		again, err := decodeWALRecord(rec.encode())
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if d := testkit.Diff(again, rec); d != "" {
			t.Fatalf("decode(encode(rec)) = %+v, want %+v: %s", again, rec, d)
		}
	})
}

// FuzzDecodeExport: export blobs cross a network boundary (POST
// …/import). Same contract as FuzzDecodeWALRecord.
func FuzzDecodeExport(f *testing.F) {
	recs, _ := walRecordFixtures()
	blob, err := encodeExport(bayes.DefaultParams(), 3, recs[2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(exportMagic))
	f.Fuzz(func(t *testing.T, blob []byte) {
		params, state, err := decodeExport(blob)
		if err != nil {
			return
		}
		enc, err := encodeExport(params, 3, state)
		if err != nil {
			t.Fatalf("decoded export does not re-encode: %v", err)
		}
		params2, state2, err := decodeExport(enc)
		if err != nil {
			t.Fatalf("re-encoded export does not decode: %v", err)
		}
		if d := testkit.Diff([]any{params2, state2}, []any{params, state}); d != "" {
			t.Fatalf("decode(encode(export)) differs from the decoded export: %s", d)
		}
	})
}
