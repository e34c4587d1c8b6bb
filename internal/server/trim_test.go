// Compaction/trim boundary tests (ISSUE 5): the WAL prefix a snapshot
// covers may be trimmed, but never a record of an acknowledged append
// that is not yet registered for trimming — and a snapshot landing
// exactly at a segment rotation must leave recovery with every append
// and the round ordinal the snapshot recorded.
package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"copydetect/internal/core"
)

// TestCompactionDoesNotTrimInflightAppend is the regression test for
// the trim-at-segment-boundary bug: an append whose WAL record is
// written (and about to be acknowledged) but not yet registered in the
// pending list must survive a concurrent compaction that trims up to
// the log's NextLSN — when a rotation closes the record's segment at
// exactly that moment, the old trim bound deleted the segment and the
// acknowledged batch silently vanished at the next recovery. The test
// drives the exact interleaving through the append path's test hook.
func TestCompactionDoesNotTrimInflightAppend(t *testing.T) {
	testWALSegmentBytes = 64 // rotate after every append-sized record
	defer func() { testWALSegmentBytes = 0 }()
	// The background compactor must not run on its own: the test
	// triggers each snapshot+trim by hand, at exactly the boundary it
	// wants, and an automatic snapshot after the second append would
	// mask the trim bug.
	testNoCompactOffer = true
	defer func() { testNoCompactOffer = false }()

	dir := t.TempDir()
	reg, err := Open(Config{
		Options: core.Options{Workers: 1},
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The crash below abandons reg without Close (Close would snapshot
	// the lost batch back into existence); this only stops its
	// goroutines once every assertion has run.
	defer func() { testHookAfterWALAppend = nil }()
	defer reg.Close()
	m, err := reg.Create("inflight", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Append(batchN("one", 6), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Quiesce(context.Background(), "inflight"); err != nil {
		t.Fatal(err)
	}
	// Round 1 stays uncompacted until the hook below: a compaction skips
	// a version already on disk, so the one in the append window must be
	// the first for round 1 to trim anything at all.

	hookRan := false
	testHookAfterWALAppend = func(st *dstore) {
		if st != m.st || hookRan {
			return
		}
		hookRan = true
		// The in-flight append record has filled the active segment past
		// the rotation threshold; the next record — a publish marker as
		// older binaries wrote them, which replay skips — opens a fresh
		// segment, closing the one holding the in-flight record...
		if _, err := st.log.Append([]byte{walRecPublish, 1, 1}); err != nil {
			t.Errorf("marker append in hook: %v", err)
		}
		// ...and the compactor runs round 1's snapshot+trim in exactly
		// this window, before the append registers its pending entry:
		// pending is pruned to empty, so the trim bound would be NextLSN
		// but for the inflight floor.
		m.snapshot(false, new(bytes.Buffer))
	}

	if _, _, err := m.Append(batchN("two", 6), nil); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("test hook never fired")
	}

	// Crash: recover in a second registry while the first is simply
	// abandoned, exactly as a SIGKILLed process would leave the
	// directory.
	reg2 := openDurable(t, dir, 1)
	defer reg2.Close()
	m2, ok := reg2.Get("inflight")
	if !ok {
		t.Fatal("dataset lost")
	}
	inf := m2.Info()
	if inf.Version != 2 {
		t.Fatalf("recovered version %d, want 2: the acknowledged in-flight append was trimmed away", inf.Version)
	}
	if inf.Observations != 12 {
		t.Fatalf("recovered %d observations, want 12", inf.Observations)
	}
}

// TestSnapshotAtSegmentRotationCrashRecovers pins the boundary the
// issue describes: snapshots (and their trims) landing precisely at WAL
// segment rotations, then a crash. Recovery must keep the appended data
// and the snapshot's round ordinal — the next round after restart
// continues the count.
func TestSnapshotAtSegmentRotationCrashRecovers(t *testing.T) {
	testWALSegmentBytes = 64 // every record lands on a rotation boundary
	defer func() { testWALSegmentBytes = 0 }()

	dir := t.TempDir()
	reg := openDurable(t, dir, 1)
	defer reg.Close() // abandoned at "crash" time; stopped after the assertions
	m, err := reg.Create("rotated", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for i := 0; i < 3; i++ {
		if _, _, err := m.Append(batchN("r"+string(rune('a'+i)), 6), nil); err != nil {
			t.Fatal(err)
		}
		pub, err := reg.Quiesce(context.Background(), "rotated")
		if err != nil || pub == nil {
			t.Fatalf("quiesce %d: pub=%v err=%v", i, pub, err)
		}
		rounds = pub.Round
		// Snapshot + trim exactly here, at a segment boundary.
		waitForSnapshot(t, dir, "rotated")
		m.snapshot(false, new(bytes.Buffer))
	}
	if rounds < 3 {
		t.Fatalf("published %d rounds, want 3", rounds)
	}

	// Crash: recover in a second registry; the first is abandoned.
	reg2 := openDurable(t, dir, 1)
	defer reg2.Close()
	m2, ok := reg2.Get("rotated")
	if !ok {
		t.Fatal("dataset lost")
	}
	if inf := m2.Info(); inf.Version != 3 || inf.Observations != 18 {
		t.Fatalf("recovered %+v, want version 3 with 18 observations", inf)
	}
	if _, _, err := m2.Append(batchN("post", 6), nil); err != nil {
		t.Fatal(err)
	}
	pub, err := reg2.Quiesce(context.Background(), "rotated")
	if err != nil || pub == nil {
		t.Fatalf("quiesce after crash: pub=%v err=%v", pub, err)
	}
	if pub.Round != rounds+1 {
		t.Fatalf("after crash the next round was %d, want %d (the snapshot's round ordinal lost in the trim)", pub.Round, rounds+1)
	}
}

// TestCompactionSkipsCurrentSnapshot: a dataset offered to the
// compactor twice for one published round (two publishes before the
// compactor reaches it both read the newest one) is snapshotted once.
// The second pass must neither rewrite the snapshot file nor touch the
// WAL.
func TestCompactionSkipsCurrentSnapshot(t *testing.T) {
	testNoCompactOffer = true // both passes run by hand, below
	defer func() { testNoCompactOffer = false }()

	dir := t.TempDir()
	reg := openDurable(t, dir, 1)
	defer reg.Close()
	m, err := reg.Create("twice", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Append(batchN("one", 6), nil); err != nil {
		t.Fatal(err)
	}
	pub, err := reg.Quiesce(context.Background(), "twice")
	if err != nil || pub == nil {
		t.Fatalf("quiesce: pub=%v err=%v", pub, err)
	}
	dsDir := filepath.Join(datasetsRoot(dir), encodeDirName("twice"))
	state := func() (os.FileInfo, []string) {
		t.Helper()
		fi, err := os.Stat(snapPath(dsDir, pub.Version))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(filepath.Join(dsDir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		var segs []string
		for _, e := range entries {
			segs = append(segs, e.Name())
		}
		return fi, segs
	}

	m.snapshot(false, new(bytes.Buffer))
	snap1, segs1 := state()
	m.snapshot(false, new(bytes.Buffer))
	snap2, segs2 := state()
	if !os.SameFile(snap1, snap2) {
		t.Error("the second compaction of one published round rewrote its snapshot")
	}
	if !reflect.DeepEqual(segs1, segs2) {
		t.Errorf("the second compaction changed the WAL segments: %v, then %v", segs1, segs2)
	}
}
