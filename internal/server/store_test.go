// Durability unit tests: clean restarts, recovery without a snapshot,
// torn WAL tails, and delete semantics — all in-process. The
// SIGKILL-based crash-equivalence acceptance test lives with the
// daemon, in cmd/copydetectd.
package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/testkit"
)

func openDurable(t *testing.T, dir string, workers int) *Registry {
	t.Helper()
	reg, err := Open(Config{
		Options: core.Options{Workers: workers},
		DataDir: dir,
		Fsync:   false, // process-death durability; keeps tests fast
	})
	if err != nil {
		t.Fatalf("open durable registry: %v", err)
	}
	return reg
}

// waitForSnapshot polls until the dataset directory holds at least one
// snapshot file.
func waitForSnapshot(t *testing.T, dir, name string) {
	t.Helper()
	dsDir := filepath.Join(datasetsRoot(dir), encodeDirName(name))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if vs, err := snapshotVersions(dsDir); err == nil && len(vs) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no snapshot appeared for dataset %q", name)
}

func TestDurableCleanRestartServesSnapshot(t *testing.T) {
	dir := t.TempDir()
	ds := testkit.Generate(t, streamPreset)
	batches := testkit.Batches(dataset.Records(ds), 3)

	reg := openDurable(t, dir, 2)
	m, err := reg.Create("books", DatasetConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, b := range batches {
		if _, _, err := m.Append(b, nil); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	want := quiesce(t, reg, "books")
	if want == nil {
		t.Fatal("no published round")
	}
	reg.Close() // flushes the snapshot

	reg2 := openDurable(t, dir, 2)
	defer reg2.Close()
	m2, ok := reg2.Get("books")
	if !ok {
		t.Fatal("dataset lost across restart")
	}
	// The snapshot is current, so the restarted dataset is converged
	// without running a single round, and the published state — result,
	// truth, probabilities, even the stats and wall times — is
	// bit-for-bit the pre-restart one.
	if !m2.Converged() {
		t.Fatal("restarted dataset not converged despite current snapshot")
	}
	got := m2.Published()
	if got == nil {
		t.Fatal("restarted dataset published nothing")
	}
	if d := testkit.Diff(got, want); d != "" {
		t.Fatalf("published state differs after clean restart: %s", d)
	}
	if inf := m2.Info(); inf.Version != want.Version || inf.Observations != ds.NumObservations() {
		t.Fatalf("restarted info = %+v", inf)
	}
}

func TestDurableRecoveryReplaysWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	ds := testkit.Generate(t, streamPreset)
	truth := dataset.TruthRecords(ds)
	batches := testkit.Batches(dataset.Records(ds), 4)

	// No snapshot until the crash: recovery must work from the log
	// alone.
	testNoCompactOffer = true
	defer func() { testNoCompactOffer = false }()
	reg, err := Open(Config{
		Options: core.Options{Workers: 1},
		DataDir: dir,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, err := reg.Create("books", DatasetConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, b := range batches {
		if _, _, err := m.Append(b, nil); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, _, err := m.Append(nil, truth); err != nil {
		t.Fatalf("append truth: %v", err)
	}
	// Abandon the registry without Close: a crash. The WAL already has
	// every acknowledged append.
	crash(reg)
	testNoCompactOffer = false

	reg2 := openDurable(t, dir, 1)
	defer reg2.Close()
	pub := quiesce(t, reg2, "books")
	if pub == nil {
		t.Fatal("recovered dataset published nothing")
	}
	final, want := batchOutcome(batches, truth, 1)
	if d := testkit.Diff(pub.Snapshot, final, untimed...); d != "" {
		t.Fatalf("recovered snapshot differs from batch-built dataset: %s", d)
	}
	if diff := testkit.Diff(pub.Outcome, want, untimed...); diff != "" {
		t.Fatalf("recovered outcome differs from the batch run: %s", diff)
	}
}

func TestDurableRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	reg := openDurable(t, dir, 1)
	m, err := reg.Create("set", DatasetConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, _, err := m.Append([]dataset.Record{
		{Source: "s1", Item: "d1", Value: "a"},
		{Source: "s2", Item: "d1", Value: "a"},
	}, nil); err != nil {
		t.Fatalf("append: %v", err)
	}
	quiesce(t, reg, "set")
	reg.Close()

	// Simulate a crash mid-write: garbage on the end of the newest WAL
	// segment, as if the process died inside an unacknowledged append.
	walDir := filepath.Join(datasetsRoot(dir), encodeDirName("set"), "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("wal dir: %v (%d entries)", err, len(entries))
	}
	seg := filepath.Join(walDir, entries[len(entries)-1].Name())
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00, 0x00, 0x00, 0xAA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg2 := openDurable(t, dir, 1)
	defer reg2.Close()
	m2, ok := reg2.Get("set")
	if !ok {
		t.Fatal("dataset lost")
	}
	if inf := m2.Info(); inf.Observations != 2 {
		t.Fatalf("recovered %d observations, want 2", inf.Observations)
	}
	// The log stays appendable after truncation.
	if _, _, err := m2.Append([]dataset.Record{{Source: "s3", Item: "d1", Value: "b"}}, nil); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if pub := quiesce(t, reg2, "set"); pub == nil || pub.Snapshot.NumObservations() != 3 {
		t.Fatalf("post-recovery round = %+v", pub)
	}
}

func TestDurableDeleteAndRecreate(t *testing.T) {
	dir := t.TempDir()
	reg := openDurable(t, dir, 1)
	if _, err := reg.Create("x", DatasetConfig{Params: bayes.Params{Alpha: 0.2}}); err != nil {
		t.Fatalf("create: %v", err)
	}
	dsDir := filepath.Join(datasetsRoot(dir), encodeDirName("x"))
	if _, err := os.Stat(filepath.Join(dsDir, "config.json")); err != nil {
		t.Fatalf("config not on disk: %v", err)
	}
	m, _ := reg.Get("x")
	gen1 := m.gen
	if !reg.Delete("x") {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(dsDir); !os.IsNotExist(err) {
		t.Fatalf("dataset dir survives delete: %v", err)
	}
	m2, err := reg.Create("x", DatasetConfig{})
	if err != nil {
		t.Fatalf("recreate: %v", err)
	}
	if m2.gen <= gen1 {
		t.Fatalf("recreated gen %d not above %d; stale ETags would validate", m2.gen, gen1)
	}
	reg.Close()

	// Generations survive restarts, keeping ETags from before the
	// restart distinguishable too.
	reg2 := openDurable(t, dir, 1)
	defer reg2.Close()
	m3, ok := reg2.Get("x")
	if !ok || m3.gen != m2.gen {
		t.Fatalf("recovered gen = %d, want %d", m3.gen, m2.gen)
	}
	if m3.Info().Workers != m2.Info().Workers {
		t.Fatal("recovered workers differ")
	}
}

// TestDurableConfigOverridesSurviveRestart: a dataset's priors survive
// a restart and its worker count does not, because it has none: the
// reopened registry runs it with its own Options.Workers. That holds as
// well for a config.json written when a dataset still kept a "workers"
// field.
func TestDurableConfigOverridesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	reg := openDurable(t, dir, 2)
	p := bayes.Params{Alpha: 0.25, S: 0.6, N: 42}
	if _, err := reg.Create("tuned", DatasetConfig{Params: p}); err != nil {
		t.Fatalf("create: %v", err)
	}
	reg.Close()
	path := filepath.Join(datasetsRoot(dir), encodeDirName("tuned"), "config.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["workers"]; ok {
		t.Fatalf("config.json names a worker count: %s", raw)
	}
	fields["workers"] = 2
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	reg2 := openDurable(t, dir, 1)
	defer reg2.Close()
	m, ok := reg2.Get("tuned")
	if !ok {
		t.Fatal("dataset lost")
	}
	inf := m.Info()
	if inf.Alpha != 0.25 || inf.S != 0.6 || inf.N != 42 || inf.Workers != 1 {
		t.Fatalf("recovered config = %+v, want the dataset's priors and the reopened registry's 1 worker", inf)
	}
}

func TestDurableSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	reg := openDurable(t, dir, 1)
	m, err := reg.Create("s", DatasetConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := m.Append([]dataset.Record{
			{Source: "s1", Item: "d1", Value: string(rune('a' + i))},
			{Source: "s2", Item: "d1", Value: "a"},
		}, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		quiesce(t, reg, "s")
	}
	waitForSnapshot(t, dir, "s")
	reg.Close()
	vs, err := snapshotVersions(filepath.Join(datasetsRoot(dir), encodeDirName("s")))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 || len(vs) > 2 {
		t.Fatalf("kept %d snapshots, want 1-2", len(vs))
	}
}

func TestDirNameRoundtrip(t *testing.T) {
	// Recovery matches a directory to the name in its config by encoding
	// the name again, so the encoding must be a safe single path element
	// and injective — including across names differing only in case,
	// which a case-insensitive filesystem would otherwise fold together.
	seen := map[string]string{}
	for _, name := range []string{
		"plain", "Plain", "PLAIN", "with-dash_and.dot", "slash/es", "slash%2Fes", "..", ".hidden",
		"spaces and ünïcode", "%already%escaped", "a%2Fb", "a/b",
	} {
		enc := encodeDirName(name)
		if filepath.Base(enc) != enc || enc == "." || enc == ".." || strings.ContainsAny(enc, `/\ `) {
			t.Errorf("encodeDirName(%q) = %q is not a safe single path element", name, enc)
		}
		if prev, dup := seen[strings.ToLower(enc)]; dup {
			t.Errorf("encodeDirName maps %q and %q to the same directory (up to case) %q", prev, name, enc)
		}
		seen[strings.ToLower(enc)] = name
	}

	// Recovery holds a directory to the encoding of the name in its
	// config: one renamed by hand — to another name's directory, or with
	// a checksum suffix that no longer matches — fails the Open instead
	// of serving the dataset from a directory Delete would not find.
	dir := t.TempDir()
	reg := openDurable(t, dir, 1)
	if _, err := reg.Create("Plain", DatasetConfig{}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	root := datasetsRoot(dir)
	good := encodeDirName("Plain")
	wrongSum := good[:len(good)-1] + "0"
	if wrongSum == good {
		wrongSum = good[:len(good)-1] + "1"
	}
	for _, bad := range []string{encodeDirName("plain"), "Plain", wrongSum} {
		if err := os.Rename(filepath.Join(root, good), filepath.Join(root, bad)); err != nil {
			t.Fatal(err)
		}
		if reg, err := Open(Config{DataDir: dir}); err == nil {
			reg.Close()
			t.Errorf("Open accepted dataset %q in hand-renamed directory %q", "Plain", bad)
		} else if !strings.Contains(err.Error(), "holds config for") {
			t.Errorf("Open with directory %q: %v, want the directory/config mismatch", bad, err)
		}
		if err := os.Rename(filepath.Join(root, bad), filepath.Join(root, good)); err != nil {
			t.Fatal(err)
		}
	}
	reg = openDurable(t, dir, 1)
	defer reg.Close()
	if _, ok := reg.Get("Plain"); !ok {
		t.Error("dataset lost after its directory was renamed back")
	}
}

// walRecordFixtures are the three record kinds with fixed contents; the
// hex strings are their payloads as encoded at the commit before the
// codec was unified, so an accidental format change fails here rather
// than at the next restart of a production data directory. Kind 2, the
// publish marker of older logs, is decoded but never encoded.
func walRecordFixtures() (recs []walRecord, golden []string) {
	obs := []dataset.Record{{Source: "s", Item: "d", Value: "v"}, {Source: "s2", Item: "d2", Value: "v2"}}
	truth := []dataset.Record{{Item: "d", Value: "v"}}
	b := dataset.NewBuilder()
	b.AddRecords(obs)
	b.SetTruth("d", "v")
	return []walRecord{
			{kind: walRecAppend, version: 7, obs: obs, truth: truth},
			{kind: walRecPublish, round: 3, version: 9},
			{kind: walRecImport, version: 11, round: 4, ds: b.Build()},
		}, []string{
			"0107020173016401760273320264320276320101640176",
			"020309",
			"030b0404434453010201730273320201640101760264320102763202000000010100010100",
		}
}

func TestWALRecordRoundtrip(t *testing.T) {
	recs, golden := walRecordFixtures()
	for i, rec := range recs {
		enc, err := hex.DecodeString(golden[i])
		if err != nil {
			t.Fatal(err)
		}
		if rec.kind != walRecPublish && !bytes.Equal(rec.encode(), enc) {
			t.Errorf("kind %d encodes to %x, want the on-disk format %s", rec.kind, rec.encode(), golden[i])
		}
		got, err := decodeWALRecord(enc)
		if err != nil {
			t.Fatalf("decode kind %d: %v", rec.kind, err)
		}
		if d := testkit.Diff(got, rec); d != "" {
			t.Errorf("kind %d: the on-disk format decodes to %+v, want %+v: %s", rec.kind, got, rec, d)
		}
		if _, err := decodeWALRecord(enc[:len(enc)-1]); err == nil {
			t.Errorf("kind %d: truncated record accepted", rec.kind)
		}
	}
	if _, err := decodeWALRecord([]byte{99}); err == nil {
		t.Error("unknown record type accepted")
	}
	// A count the payload cannot hold is corruption, not an allocation.
	if _, err := decodeWALRecord([]byte{walRecAppend, 1, 0xff, 0xff, 0xff, 0x1f}); err == nil {
		t.Error("append record claiming 2^26 observations in 6 bytes accepted")
	}
}
