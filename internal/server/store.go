// Durable storage behind the registry (dstore): every managed dataset
// owns a directory holding a config file, a write-ahead log of records
// (walRecord; dstore.commit is the one place that writes them) and
// binary snapshots of (dataset, published outcome) pairs. The
// invariants:
//
//   - An append or import is acknowledged only after its record is
//     committed (written and, with Config.Fsync, fsync'd). The in-memory
//     builder never holds state the log does not.
//   - The background compactor snapshots the last published round and
//     then trims every WAL segment fully covered by it, bounding both
//     recovery time and disk use; it never trims at or past a record
//     that is being committed (the inflight floor).
//
// Recovery (registry Open) inverts this: load the newest intact
// snapshot, rebuild the append Builder from its dataset
// (dataset.NewBuilderFromDataset reproduces the id assignment), replay
// the WAL tail through Managed.apply — skipping records the snapshot
// already covers, truncating a torn tail — and mark the dataset dirty
// when appends are newer than the published round, so the scheduler
// re-converges it.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/binio"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/wal"
)

const (
	walRecAppend = 1 // one acknowledged append batch
	// walRecPublish marked a completed round in logs written before
	// rounds stopped depending on their predecessors. Nothing writes it
	// any more; it still decodes, and replay skips it.
	walRecPublish = 2
	walRecImport  = 3 // anti-entropy import replaced the appended state

	snapMagic  = "CDSNAP\x01"
	snapPrefix = "snap-"
	snapSuffix = ".bin"

	maxBatch = 1 << 26
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// testWALSegmentBytes overrides the WAL segment rotation threshold
// (0 = the WAL default). Test-only: the trim-boundary tests need
// rotation after a handful of records, not 4 MiB.
var testWALSegmentBytes int64

// testNoCompactOffer, when set, keeps publishes from offering their
// dataset to the compactor. Test-only: the trim-boundary and WAL-only
// recovery tests snapshot by hand, or not at all.
var testNoCompactOffer bool

// testHookAfterWALAppend, when non-nil, runs inside commit between a
// successful WAL append and the registration of its pending entry — the
// window the inflight floor protects. No lock but the dataset's appendMu
// is held. Test-only.
var testHookAfterWALAppend func(st *dstore)

// dstore is the on-disk half of one Managed dataset. A nil *dstore is
// the store of an in-memory registry: every method is a no-op.
type dstore struct {
	dir string
	log *wal.Log

	// mu guards the trim bookkeeping below. It is a leaf lock: never
	// held across a disk write, never taken with another lock wanted.
	mu          sync.Mutex
	pending     []verLSN // appends and imports not yet covered by a snapshot
	snapVersion uint64   // append version the newest on-disk snapshot covers
	// inflightLSN is a lower bound on the WAL position of a record that
	// has been (or is about to be) written but is not yet registered in
	// pending. The compactor must never trim at or past it: the record
	// may already be acknowledged, and trimming its segment would
	// silently lose the batch at the next recovery. 0 means no write in
	// flight.
	inflightLSN uint64
}

// verLSN remembers at which WAL position an append version starts, so
// the compactor can trim exactly the prefix a snapshot covers.
type verLSN struct {
	version uint64
	lsn     uint64
}

// datasetConfig is the JSON sidecar written once at Create: everything
// a restarted server needs to reconstruct the Managed shell before any
// observation arrives. A file written before the worker count became
// the process's still holds a "workers" field; decoding skips it.
type datasetConfig struct {
	Name  string  `json:"name"`
	Gen   uint64  `json:"gen"`
	Alpha float64 `json:"alpha"`
	S     float64 `json:"s"`
	N     float64 `json:"n"`
}

// ---------------------------------------------------------------------
// Dataset directories

// datasetsRoot returns the directory holding one subdirectory per
// dataset.
func datasetsRoot(dataDir string) string { return filepath.Join(dataDir, "datasets") }

// encodeDirName maps a dataset name to a filesystem-safe directory
// name: alphanumerics, '-', '_' and non-leading '.' pass through,
// every other byte becomes %XX, and a CRC-32C of the exact name is
// suffixed so that names differing only in letter case still map to
// distinct directories on case-insensitive filesystems. The mapping is
// injective; recovery checks a directory against the name in its config
// by encoding again.
func encodeDirName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteByte(c)
		case c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	fmt.Fprintf(&b, ".%08x", crc32.Checksum([]byte(name), snapCRC))
	return b.String()
}

// writeFileDurable writes data to path via a temp file, fsync and
// rename, then fsyncs the directory.
func writeFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}

// ---------------------------------------------------------------------
// WAL record payloads

// walRecord is one state change of a dataset: the in-memory form of a
// WAL payload. The live paths build one, commit it and apply it; replay
// decodes one and applies it.
type walRecord struct {
	kind byte
	// version is the append version the record produces. It rides along
	// so recovery can tell which records a snapshot already covers.
	version uint64
	round   int              // import: the peer's rounds counter
	obs     []dataset.Record // append
	truth   []dataset.Record // append (Source empty)
	ds      *dataset.Dataset // import: the whole replacement state
}

// encode frames rec as a WAL payload; decodeWALRecord mirrors it case
// for case.
func (rec walRecord) encode() []byte {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Byte(rec.kind)
	switch rec.kind {
	case walRecAppend:
		w.Uvarint(rec.version)
		w.Int(len(rec.obs))
		for _, o := range rec.obs {
			w.String(o.Source)
			w.String(o.Item)
			w.String(o.Value)
		}
		w.Int(len(rec.truth))
		for _, tr := range rec.truth {
			w.String(tr.Item)
			w.String(tr.Value)
		}
	case walRecImport:
		w.Uvarint(rec.version)
		w.Int(rec.round)
		dataset.EncodeDataset(w, rec.ds)
	}
	// A bytes.Buffer never fails to write, so the only latchable error
	// is a string over binio's blob limit — far above the request size
	// limits — and silently logging a truncated record would corrupt the
	// WAL; crash instead.
	if err := w.Err(); err != nil {
		panic("store: encode wal record: " + err.Error())
	}
	return buf.Bytes()
}

func decodeWALRecord(payload []byte) (walRecord, error) {
	r := binio.NewReader(bytes.NewReader(payload))
	rec := walRecord{kind: r.Byte()}
	// Every observation or truth takes at least two bytes of payload, so
	// a count above the payload length is corruption, not an allocation.
	maxCount := min(maxBatch, len(payload))
	switch rec.kind {
	case walRecAppend:
		rec.version = r.Uvarint()
		if n := r.Int(maxCount); n > 0 {
			rec.obs = make([]dataset.Record, n)
			for i := range rec.obs {
				rec.obs[i] = dataset.Record{Source: r.String(), Item: r.String(), Value: r.String()}
			}
		}
		if n := r.Int(maxCount); n > 0 {
			rec.truth = make([]dataset.Record, n)
			for i := range rec.truth {
				rec.truth[i] = dataset.Record{Item: r.String(), Value: r.String()}
			}
		}
	case walRecPublish: // read only: the round it marked and the version that round detected on
		rec.round = r.Int(1 << 30)
		rec.version = r.Uvarint()
	case walRecImport:
		rec.version = r.Uvarint()
		rec.round = r.Int(1 << 30)
		var err error
		if rec.ds, err = dataset.DecodeDataset(r); err != nil {
			return rec, fmt.Errorf("server: decode wal import record: %w", err)
		}
	default:
		return rec, fmt.Errorf("server: unknown wal record type %d", rec.kind)
	}
	if err := r.Err(); err != nil {
		return rec, fmt.Errorf("server: decode wal record: %w", err)
	}
	return rec, nil
}

// ---------------------------------------------------------------------
// Commit and compaction

// commit makes rec durable: the one write-ahead step every state change
// of a dataset goes through, before any in-memory effect and before the
// client sees an acknowledgement. The caller holds the dataset's
// appendMu — so WAL order equals version order — and must NOT hold the
// dataset lock: the disk write (fsync'd when the registry is configured
// so) happens here, and readers never wait on it. The inflight floor
// pins the compactor out of the segment the record lands in until its
// pending entry exists.
func (st *dstore) commit(rec walRecord) error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	st.inflightLSN = st.log.NextLSN()
	st.mu.Unlock()
	lsn, err := st.log.Append(rec.encode())
	if err == nil && testHookAfterWALAppend != nil {
		testHookAfterWALAppend(st)
	}
	st.mu.Lock()
	st.inflightLSN = 0
	if err == nil {
		st.pending = append(st.pending, verLSN{version: rec.version, lsn: lsn})
	}
	st.mu.Unlock()
	return err
}

// compact persists pub and trims the WAL prefix it covers. Best effort:
// on any error the WAL still holds everything, so durability is never
// at risk — only recovery time; a dataset deleted meanwhile just fails
// the write (or the trim, on its closed log) harmlessly. A snapshot
// already on disk at pub's version or later is not rewritten: a dataset
// offered twice before the compactor reaches it finds the second offer
// covered by the first.
func (st *dstore) compact(pub *Published, buf *bytes.Buffer) {
	if st == nil {
		return
	}
	st.mu.Lock()
	have := st.snapVersion
	st.mu.Unlock()
	if pub.Version <= have {
		return
	}
	// Encoding and fsync happen outside every lock: everything a
	// Published points to is immutable.
	if err := st.writeSnapshot(pub, buf); err != nil {
		return
	}
	st.mu.Lock()
	st.snapVersion = max(st.snapVersion, pub.Version)
	for len(st.pending) > 0 && st.pending[0].version <= pub.Version {
		st.pending = st.pending[1:]
	}
	trim := st.log.NextLSN()
	if len(st.pending) > 0 {
		trim = st.pending[0].lsn
	}
	if st.inflightLSN != 0 && st.inflightLSN < trim {
		// A record is being committed but is not yet registered in
		// pending: NextLSN may already count it, and trimming up to
		// NextLSN at an exact segment boundary would delete the segment
		// holding an acknowledged batch. Stop at the floor instead; the
		// next compaction trims the rest.
		trim = st.inflightLSN
	}
	st.mu.Unlock()
	_, _ = st.log.TrimBefore(trim)
	st.pruneSnapshots(2)
}

// ---------------------------------------------------------------------
// Snapshots

func snapPath(dir string, version uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, version, snapSuffix))
}

// writeSnapshot persists pub as a checksummed binary snapshot file,
// atomically (temp + rename), encoding it in buf.
func (st *dstore) writeSnapshot(pub *Published, buf *bytes.Buffer) error {
	buf.Reset()
	w := binio.NewWriter(buf)
	w.String(snapMagic)
	w.Uvarint(pub.Version)
	w.Int(pub.Round)
	w.String(pub.Algorithm)
	dataset.EncodeDataset(w, pub.Snapshot)
	fusion.EncodeOutcome(w, pub.Outcome)
	w.Uvarint(uint64(pub.Wall))
	if err := w.Err(); err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	var trailer [4]byte
	sum := crc32.Checksum(buf.Bytes(), snapCRC)
	trailer[0], trailer[1], trailer[2], trailer[3] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
	buf.Write(trailer[:])
	return writeFileDurable(snapPath(st.dir, pub.Version), buf.Bytes())
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string) (*Published, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("server: snapshot %s: too short", filepath.Base(path))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	sum := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if crc32.Checksum(body, snapCRC) != sum {
		return nil, fmt.Errorf("server: snapshot %s: checksum mismatch", filepath.Base(path))
	}
	r := binio.NewReader(bytes.NewReader(body))
	if m := r.String(); r.Err() == nil && m != snapMagic {
		return nil, fmt.Errorf("server: snapshot %s: bad magic", filepath.Base(path))
	}
	pub := &Published{
		Version:   r.Uvarint(),
		Round:     r.Int(1 << 30),
		Algorithm: r.String(),
	}
	pub.Snapshot, err = dataset.DecodeDataset(r)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot %s: %w", filepath.Base(path), err)
	}
	pub.Outcome, err = fusion.DecodeOutcome(r)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot %s: %w", filepath.Base(path), err)
	}
	pub.Wall = time.Duration(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("server: snapshot %s: %w", filepath.Base(path), err)
	}
	return pub, nil
}

// snapshotVersions lists the snapshot file versions in dir, newest
// first.
func snapshotVersions(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var versions []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
		if err != nil {
			continue
		}
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	return versions, nil
}

// loadLatestSnapshot returns the newest snapshot that decodes cleanly,
// or nil when none exists. Corrupt newer files are skipped (and left in
// place for inspection); an older intact snapshot plus the unreplayed
// WAL suffix still recovers the full state.
func loadLatestSnapshot(dir string) *Published {
	versions, err := snapshotVersions(dir)
	if err != nil {
		return nil
	}
	for _, v := range versions {
		if pub, err := readSnapshot(snapPath(dir, v)); err == nil {
			return pub
		}
	}
	return nil
}

// pruneSnapshots removes all but the newest keep snapshot files and any
// leftover temp files.
func (st *dstore) pruneSnapshots(keep int) {
	versions, err := snapshotVersions(st.dir)
	if err != nil {
		return
	}
	for i, v := range versions {
		if i >= keep {
			os.Remove(snapPath(st.dir, v))
		}
	}
	if entries, err := os.ReadDir(st.dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				os.Remove(filepath.Join(st.dir, e.Name()))
			}
		}
	}
}

// ---------------------------------------------------------------------
// Create / recover plumbing (called from registry.go with r.mu held, or
// before the registry is shared)

// createStore creates the on-disk layout for the fresh dataset m and
// opens its (empty) WAL. An in-memory registry has no store: it returns
// the nil *dstore.
func (r *Registry) createStore(m *Managed) (*dstore, error) {
	if r.cfg.DataDir == "" {
		return nil, nil
	}
	root := datasetsRoot(r.cfg.DataDir)
	dir := filepath.Join(root, encodeDirName(m.name))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("server: create dataset dir: %w", err)
	}
	// Once config.json is durably in place a restart would resurrect
	// the dataset, so every error below must take the directory down
	// with it — the client was told the Create failed.
	fail := func(err error) (*dstore, error) {
		discard(dir)
		return nil, err
	}
	raw, err := json.MarshalIndent(datasetConfig{
		Name:  m.name,
		Gen:   m.gen,
		Alpha: m.params.Alpha,
		S:     m.params.S,
		N:     m.params.N,
	}, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := writeFileDurable(filepath.Join(dir, "config.json"), raw); err != nil {
		return fail(fmt.Errorf("server: write dataset config: %w", err))
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Fsync: r.cfg.Fsync, SegmentBytes: testWALSegmentBytes, ObserveAppend: r.observeWAL}, nil)
	if err != nil {
		return fail(err)
	}
	if err := wal.SyncDir(root); err != nil {
		log.Close()
		return fail(err)
	}
	return &dstore{dir: dir, log: log}, nil
}

// recoverDataset rebuilds one Managed from its directory: config,
// newest snapshot, then the WAL tail replayed through Managed.apply —
// the same function the live paths use, so the recovered state is the
// state an uninterrupted process would hold after the same records.
func (r *Registry) recoverDataset(dir string) (*Managed, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, err
	}
	var cfg datasetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("server: dataset config %s: %w", dir, err)
	}
	params := bayes.Params{Alpha: cfg.Alpha, S: cfg.S, N: cfg.N}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("server: dataset config %s: %w", dir, err)
	}
	m := r.newManaged(cfg.Name, cfg.Gen, params)
	m.st = &dstore{dir: dir}
	if pub := loadLatestSnapshot(dir); pub != nil {
		// A snapshot installs its dataset the way an import does.
		m.apply(walRecord{kind: walRecImport, version: pub.Version, round: pub.Round, ds: pub.Snapshot})
		m.pub = m.newPublished(*pub, m.interning)
		m.st.snapVersion = pub.Version
	}
	m.st.log, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Fsync: r.cfg.Fsync, SegmentBytes: testWALSegmentBytes, ObserveAppend: r.observeWAL}, func(lsn uint64, payload []byte) error {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		if rec.kind == walRecPublish || rec.version <= m.version {
			return nil // no state in it, covered by the snapshot, or superseded by a later state
		}
		m.st.pending = append(m.st.pending, verLSN{version: rec.version, lsn: lsn})
		m.apply(rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: dataset %q: %w", cfg.Name, err)
	}
	m.dirty = m.version > 0 && (m.pub == nil || m.pub.Version != m.version)
	return m, nil
}

// close closes the WAL — any WAL call an in-flight round or the
// compactor races in afterwards returns a closed-log error — and, with
// remove set, deletes the dataset's directory tree, best effort. The
// config file goes first, durably: recovery discards any dataset
// directory without a config.json, so once that single remove lands the
// dataset can never be resurrected, no matter where the rest of the
// removal fails or crashes. A compactor racing the delete may still land
// a snapshot rename mid-removal (ENOTEMPTY on the final rmdir), so the
// tree removal retries briefly.
func (st *dstore) close(remove bool) {
	if st == nil {
		return
	}
	_ = st.log.Close()
	if !remove {
		return
	}
	if err := os.Remove(filepath.Join(st.dir, "config.json")); err != nil && !os.IsNotExist(err) {
		return
	}
	_ = wal.SyncDir(st.dir)
	for attempt := 0; attempt < 5; attempt++ {
		if os.RemoveAll(st.dir) == nil {
			_ = wal.SyncDir(filepath.Dir(st.dir))
			return
		}
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
}

// discard is a best-effort RemoveAll for malformed dataset directories
// found during recovery (e.g. a crash between mkdir and config write).
func discard(dir string) {
	os.RemoveAll(dir)
	_ = wal.SyncDir(filepath.Dir(dir))
}
