package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/binio"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
)

// Published is the immutable outcome of one completed detection round.
// Everything it points to is a snapshot: readers may use it without
// locking, concurrently with later appends and rounds.
type Published struct {
	// Version is the append version the round's snapshot was built at;
	// Round counts completed rounds for the dataset, starting at 1.
	Version uint64
	Round   int
	// Algorithm names the detector the round ran: "INCREMENTAL", or
	// "HYBRID" in a snapshot an older binary wrote of a first round.
	Algorithm string
	// Snapshot is the dataset the round detected on.
	Snapshot *dataset.Dataset
	// Outcome is the full iterative result (copying pairs, truths,
	// state, per-round stats).
	Outcome *fusion.Outcome
	// Wall is the end-to-end duration of the round.
	Wall time.Duration

	// reads are the round's read bodies and their ETags (newPublished).
	reads *readBodies
}

// newPublished completes one of m's rounds for serving: it renders the
// round's read bodies, once. runRound publishes what it returns, and
// recovery installs a snapshot's round through it too.
func (m *Managed) newPublished(p Published) *Published {
	p.reads = renderReads(m.name, m.gen, &p)
	return &p
}

// Managed is one named dataset under registry management. All methods
// are safe for concurrent use.
type Managed struct {
	name   string
	gen    uint64 // registry-wide creation counter, disambiguates ETags across delete/recreate
	params bayes.Params
	reg    *Registry

	// appendMu serializes every change of the appended state — append,
	// import — from its staleness checks through commit to apply, so WAL
	// order always equals version order, while keeping the disk write
	// (fsync!) outside mu: reads never wait on storage. Lock order:
	// appendMu → mu.
	appendMu sync.Mutex
	// st is the durable half, set once before the dataset is shared.
	st *dstore

	mu      sync.Mutex
	cond    *sync.Cond
	builder *dataset.Builder
	version uint64 // the append version: assigned by apply only
	rounds  int    // ordinal of the last published round: runRound counts, a snapshot or an import restores
	dirty   bool   // appends not yet covered by a completed round
	running bool   // a round is in flight
	closed  bool
	cancel  chan struct{} // closes to abort the in-flight round
	// appending counts append requests inside the HTTP handler and
	// lastWrite is when the dataset last changed; the scheduler starts no
	// round while the first is non-zero or the second is less than
	// quietPeriod ago (claimDirty).
	appending int
	lastWrite time.Time
	// lagSince is when the dataset last left the converged state — the
	// arrival of the oldest append not yet covered by a published round.
	// Telemetry reads it for the convergence-lag-seconds gauge; it is
	// only meaningful while convergedLocked() is false.
	lagSince time.Time

	pub *Published
	// unpublished are the read bodies served before the first round,
	// rendered when the dataset is made.
	unpublished *readBodies
}

// readBodies are the …/copies and …/truth bodies of one published round
// (or of none yet) and their ETags, by convergence flag: [0] while the
// round covers every append, [1] while an append waits for a round.
type readBodies struct {
	etag          [2]string
	copies, truth [2][]byte
}

// Info is a point-in-time summary of a managed dataset.
type Info struct {
	Name         string  `json:"name"`
	Version      uint64  `json:"version"`
	Sources      int     `json:"sources"`
	Items        int     `json:"items"`
	Observations int     `json:"observations"`
	Converged    bool    `json:"converged"`
	Workers      int     `json:"workers"`
	Alpha        float64 `json:"alpha"`
	S            float64 `json:"s"`
	N            float64 `json:"n"`

	// Served* describe the published round (zero before the first one).
	ServedVersion uint64 `json:"servedVersion"`
	Round         int    `json:"round"`
	Algorithm     string `json:"algorithm,omitempty"`
}

// apply turns one record into in-memory state. It is the only code that
// assigns builder or version, and live appends, imports and crash replay
// all call it — so replaying the same records in the same order
// reproduces the same dataset by construction. The caller holds mu
// (replay runs before the dataset is shared) and has already made rec
// durable.
func (m *Managed) apply(rec walRecord) {
	switch rec.kind {
	case walRecAppend:
		m.builder.AddRecords(rec.obs)
		for _, tr := range rec.truth {
			m.builder.SetTruth(tr.Item, tr.Value)
		}
		m.version = rec.version
	case walRecImport:
		m.builder = dataset.NewBuilderFromDataset(rec.ds)
		m.version = rec.version
		m.rounds = max(m.rounds, rec.round)
	}
}

// write commits rec and applies it: the shared body of AppendSeq and
// Import. The caller holds appendMu and mu and has done its admission
// checks; write drops mu around the disk write and returns with it held
// again. what names the operation in the error.
func (m *Managed) write(rec walRecord, what string) error {
	m.mu.Unlock()
	err := m.st.commit(rec)
	m.mu.Lock()
	if err != nil {
		return fmt.Errorf("server: dataset %q: %s not durable: %w", m.name, what, err)
	}
	if m.closed {
		// Deleted or shut down while the record was being written; the
		// change was never acknowledged, and the log is gone or going
		// with the dataset.
		return ErrNotFound
	}
	m.markDirtyLocked()
	m.apply(rec)
	return nil
}

// markDirtyLocked records that the dataset is about to move past its
// published round: stamp the lag clock if it was converged, abort the
// in-flight round (it detects a snapshot the new state is not in —
// publishing it would be discarded anyway), and wake the scheduler.
func (m *Managed) markDirtyLocked() {
	m.lastWrite = time.Now()
	if m.convergedLocked() {
		m.lagSince = m.lastWrite
	}
	m.dirty = true
	m.cancelRoundLocked()
	m.cond.Broadcast()
	m.reg.kickAsync()
}

// appendBegin and appendEnd bracket one append request in the HTTP
// handler, from before its body is read to after its reply is written.
// The end wakes the scheduler: the begin may have held back a claim.
func (m *Managed) appendBegin() {
	m.mu.Lock()
	m.appending++
	m.mu.Unlock()
}

func (m *Managed) appendEnd() {
	m.mu.Lock()
	m.appending--
	m.mu.Unlock()
	m.reg.kickAsync()
}

// cancelRoundLocked aborts the in-flight round, if any.
func (m *Managed) cancelRoundLocked() {
	if m.cancel != nil {
		close(m.cancel)
		m.cancel = nil
	}
}

// shut marks the dataset closed and aborts its in-flight round.
func (m *Managed) shut() {
	m.mu.Lock()
	m.closed = true
	m.cancelRoundLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Append adds a batch of named observations (and optional gold-standard
// truths, with Record.Source empty) to the dataset and schedules a
// detection round. It returns the new append version and the total
// number of observation cells.
func (m *Managed) Append(obs, truth []dataset.Record) (version uint64, total int, err error) {
	version, total, _, err = m.AppendSeq(obs, truth, 0)
	return version, total, err
}

// AppendSeq is Append with replay protection: seq, when non-zero,
// asserts this batch is append number seq of the dataset. A batch whose
// seq the dataset has already passed (version >= seq) is acknowledged
// without being applied — applied is false and version is the current
// version — so a replication layer may re-send a batch any number of
// times and it lands exactly once. A seq from the future (version <
// seq-1) fails with ErrSeqGap: earlier appends are missing and applying
// out of order would diverge from the primary. seq 0 is an ordinary
// unconditioned append.
func (m *Managed) AppendSeq(obs, truth []dataset.Record, seq uint64) (version uint64, total int, applied bool, err error) {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, false, ErrNotFound
	}
	if seq > 0 {
		if m.version >= seq {
			// Duplicate delivery of an already-applied batch.
			return m.version, m.builder.NumObservations(), false, nil
		}
		if m.version != seq-1 {
			return 0, 0, false, fmt.Errorf("%w: dataset %q is at version %d, batch claims sequence %d", ErrSeqGap, m.name, m.version, seq)
		}
	}
	if hw := m.reg.cfg.AppendHighWater; seq == 0 && hw > 0 {
		// Admission control, for client writes only: sequenced appends
		// are replication traffic already admitted at the gateway, and
		// refusing them here would spuriously mark replicas stale.
		if lag := m.lagLocked(); lag >= uint64(hw) {
			if in := m.reg.inst.Load(); in != nil {
				in.admissionRej.Inc()
			}
			return 0, 0, false, fmt.Errorf("%w: dataset %q has %d appends awaiting convergence (high-water %d)",
				ErrBacklog, m.name, lag, hw)
		}
	}
	if err := m.write(walRecord{kind: walRecAppend, version: m.version + 1, obs: obs, truth: truth}, "append"); err != nil {
		return 0, 0, false, err
	}
	return m.version, m.builder.NumObservations(), true, nil
}

// Export serializes the dataset's full appended state — priors, append
// version, rounds counter and the dataset itself in the bit-exact binary
// codec — for anti-entropy transfer to a replica.
// Importing the blob elsewhere reproduces this dataset's Builder
// interning exactly, so appends streamed after the transfer keep both
// copies byte-identical.
func (m *Managed) Export() ([]byte, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	state := walRecord{kind: walRecImport, version: m.version, round: m.rounds, ds: m.builder.Build()}
	m.mu.Unlock()
	return encodeExport(m.params, m.reg.cfg.Options.Workers, state)
}

const exportMagic = "CDEXP\x01"

// encodeExport serializes one dataset's full appended state for
// anti-entropy transfer: its priors, a worker count, then the import
// record that installs the state elsewhere — append version, rounds
// counter and the dataset in the bit-exact binary codec. The worker
// count is the exporting process's; no importer applies it, and it is
// written only so that the blob keeps the layout earlier releases read.
func encodeExport(params bayes.Params, workers int, state walRecord) ([]byte, error) {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.String(exportMagic)
	w.Float64(params.Alpha)
	w.Float64(params.S)
	w.Float64(params.N)
	w.Int(workers)
	w.Uvarint(state.version)
	w.Int(state.round)
	dataset.EncodeDataset(w, state.ds)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("server: encode export: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeExport inverts encodeExport, skipping the worker count, and
// validates the priors.
func decodeExport(blob []byte) (params bayes.Params, state walRecord, err error) {
	r := binio.NewReader(bytes.NewReader(blob))
	if m := r.String(); r.Err() == nil && m != exportMagic {
		return params, state, fmt.Errorf("server: export blob: bad magic")
	}
	params = bayes.Params{Alpha: r.Float64(), S: r.Float64(), N: r.Float64()}
	r.Int(1 << 20) // the exporter's worker count
	state = walRecord{kind: walRecImport, version: r.Uvarint(), round: r.Int(1 << 30)}
	if state.ds, err = dataset.DecodeDataset(r); err == nil {
		if err = r.Err(); err == nil {
			err = params.Validate()
		}
	}
	if err != nil {
		return params, state, fmt.Errorf("server: export blob: %w", err)
	}
	return params, state, nil
}

// Import replaces the named dataset's appended state with an Export
// blob from its replication peer, creating the dataset (with the
// blob's priors) if it does not exist. An existing dataset whose priors
// differ from the blob's refuses it with ErrPriorsMismatch. The import
// applies only when the blob is newer than the local state (blob
// version > local version) — a stale or duplicated transfer is
// acknowledged without effect — and returns the dataset's version
// afterwards. An applied import schedules a detection round, so the
// catch-up converges to the peer's published result.
func (r *Registry) Import(name string, blob []byte) (applied bool, version uint64, err error) {
	params, state, err := decodeExport(blob)
	if err != nil {
		return false, 0, err
	}
	m, ok := r.Get(name)
	if !ok {
		m, err = r.Create(name, DatasetConfig{Params: params})
		if err != nil && !errors.Is(err, ErrExists) {
			return false, 0, err
		}
		if err != nil {
			// Lost a create race; the winner's dataset takes the import.
			if m, ok = r.Get(name); !ok {
				return false, 0, ErrNotFound
			}
		}
	}
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, 0, ErrNotFound
	}
	if m.params != params {
		return false, 0, fmt.Errorf("%w: dataset %q has %+v, the blob %+v", ErrPriorsMismatch, m.name, m.params, params)
	}
	if m.version >= state.version {
		return false, m.version, nil
	}
	if err := m.write(state, "import"); err != nil {
		return false, 0, err
	}
	return true, m.version, nil
}

// Published returns the last completed round, or nil before the first.
func (m *Managed) Published() *Published {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pub
}

// Converged reports whether the published result covers every append.
func (m *Managed) Converged() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.convergedLocked()
}

// readView is one consistent read of a dataset: the ETag and the bodies
// of the published round (or of none yet) under one convergence flag,
// taken together, so a body can never pair one round's data with
// another round's convergence claim or tag.
type readView struct {
	etag          string
	copies, truth []byte
}

// readView returns what the read endpoints serve now. The ETag names the
// served result: it changes exactly when a new round is published or the
// convergence flag flips (an unconverged tag ends in "-u"), and the
// creation generation keeps tags from a deleted dataset invalid against
// a recreated one of the same name. One tag, one body, rendered before
// it is served: readView only picks stored bytes.
func (m *Managed) readView() readView {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, row := m.unpublished, 0
	if m.pub != nil {
		b = m.pub.reads
	}
	if !m.convergedLocked() {
		row = 1
	}
	return readView{etag: b.etag[row], copies: b.copies[row], truth: b.truth[row]}
}

// Info returns a point-in-time summary.
func (m *Managed) Info() Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	inf := Info{
		Name:         m.name,
		Version:      m.version,
		Sources:      m.builder.NumSources(),
		Items:        m.builder.NumItems(),
		Observations: m.builder.NumObservations(),
		Converged:    m.convergedLocked(),
		Workers:      m.reg.cfg.Options.Workers,
		Alpha:        m.params.Alpha,
		S:            m.params.S,
		N:            m.params.N,
	}
	if m.pub != nil {
		inf.ServedVersion = m.pub.Version
		inf.Round = m.pub.Round
		inf.Algorithm = m.pub.Algorithm
	}
	return inf
}

func (m *Managed) convergedLocked() bool {
	return !m.dirty && !m.running && m.lagLocked() == 0
}

// lagLocked is the number of accepted appends the published round does
// not cover (every append, before the first round).
func (m *Managed) lagLocked() uint64 {
	if m.pub == nil {
		return m.version
	}
	return m.version - m.pub.Version
}
