// Package server is the serving layer behind cmd/copydetectd: a registry
// of named datasets that accepts streamed observation appends and keeps a
// cached copy-detection result per dataset, recomputed asynchronously by
// a dirty-dataset scheduler.
//
// The contract is batch equivalence: every detection round runs the full
// iterative process (fusion.TruthFinder) from priors, with fresh
// INCREMENTAL state (in memory the rounds carry, roundScratch), on an
// immutable snapshot of all observations appended so far. What is published for a version is therefore a
// function of that version — not of how many rounds came before, of
// restarts, or of how appends were coalesced — and once a dataset
// quiesces (no pending appends, no in-flight round) its published result
// is byte-identical (up to wall-clock timers) to a one-shot batch
// INCREMENTAL run over the same final dataset with the same parameters.
// Reads never block on detection: they serve the last published round,
// versioned by an ETag.
//
// INCREMENTAL's two warm rounds are HYBRID; the remaining rounds of the
// iterative process reuse the entry classification of Section V. When an
// append arrives while a round is in flight, the round's snapshot is
// stale: the scheduler cancels it between iterative rounds
// (fusion.TruthFinder.Cancel) and reschedules the dataset.
//
// With Config.DataDir set (registry Open), every dataset is durable:
// appends are acknowledged only after their write-ahead-log record is
// persisted, a background compactor snapshots each published round and
// trims the log behind it, and a restarted registry replays
// snapshot-plus-tail so that, once re-quiesced, it publishes the same
// Result an uninterrupted process would have — the batch-equivalence
// contract extended across process death.
//
// A WAL record is the only unit of change to the appended state, and
// the files follow its life (DESIGN.md, "Serving layer"):
//
//	registry.go  Config, Open/recover/Close, Create/Get/Delete/List/Quiesce
//	managed.go   one dataset: AppendSeq, Export/Import, apply (record → memory)
//	round.go     scheduler → snapshot → detect → publish → compaction trigger
//	store.go     dstore: record codec, commit (record → disk), snapshot/trim, recover
//	http.go      the copydetectd wire protocol; metrics.go its /metrics
package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/pool"
)

// Config tunes a Registry.
type Config struct {
	// Options are the detector options of every detection round.
	// Options.Workers shards each round (below 1 means 1); the shard
	// count belongs to the process, not to a dataset, as no result bit
	// depends on it.
	Options core.Options

	// DataDir, when non-empty, makes every dataset durable under this
	// directory: appends go through a write-ahead log before being
	// acknowledged, published rounds are snapshotted, and Open recovers
	// the full registry state after a crash or restart. Empty means a
	// purely in-memory registry.
	DataDir string
	// Fsync makes every acknowledged append and import fsync the WAL, so
	// acknowledged data survives power loss rather than just process
	// death. Only meaningful with DataDir.
	Fsync bool

	// AppendHighWater, when positive, bounds per-dataset convergence
	// lag: an unsequenced append (seq 0 — a client write, not
	// replication traffic) is refused with ErrBacklog once the dataset
	// has AppendHighWater or more accepted appends not yet covered by a
	// published round. Zero or negative disables admission control.
	AppendHighWater int
}

// ErrNotFound reports an unknown (or deleted) dataset name.
var ErrNotFound = fmt.Errorf("server: dataset not found")

// ErrExists reports a Create for a name already registered.
var ErrExists = fmt.Errorf("server: dataset already exists")

// ErrSeqGap reports a sequenced append whose sequence number is ahead
// of the dataset: one or more earlier appends are missing, so applying
// it would put the replica out of order with its primary.
var ErrSeqGap = fmt.Errorf("server: append sequence gap")

// ErrPriorsMismatch reports an import whose blob carries other priors
// than the existing dataset it would replace: applying it would serve
// one model's answer under another's name.
var ErrPriorsMismatch = fmt.Errorf("server: import priors differ from the dataset's")

// ErrBacklog reports an append refused by admission control: the
// dataset's convergence lag reached Config.AppendHighWater, so instead
// of queueing without bound the caller should back off and retry (the
// HTTP layer answers 429 with a Retry-After).
var ErrBacklog = fmt.Errorf("server: dataset convergence backlog")

// Registry holds the managed datasets and runs their detection rounds on
// a dirty-dataset scheduler.
type Registry struct {
	cfg Config // normalised by Open: defaults filled in, immutable afterwards

	inst atomic.Pointer[instruments] // set by RegisterMetrics, nil until then

	mu     sync.Mutex
	sets   map[string]*Managed
	gen    uint64 // bumped per Create
	closed bool
	// lastClaim names the dataset claimDirty claimed last: its next scan
	// starts after it.
	lastClaim string

	// deletes counts Deletes. The scheduler's round scratch and the
	// compactor's encode buffer are sized by the largest dataset they have
	// served; each owner drops its memory when the count moves, so a
	// deleted dataset does not pin its high-water mark.
	deletes atomic.Uint64

	kick     chan struct{}
	stop     chan struct{}
	compactC chan *Managed
	wg       sync.WaitGroup
}

// NewRegistry starts a purely in-memory registry and its scheduler
// goroutine; persistence fields of cfg are ignored. Use Open for a
// durable registry. Close it to stop detection and release the
// goroutine.
func NewRegistry(cfg Config) *Registry {
	cfg.DataDir = ""
	r, err := Open(cfg)
	if err != nil {
		// Unreachable: with no data directory, Open touches no disk.
		panic(err)
	}
	return r
}

// Open starts a registry. With cfg.DataDir set it first recovers every
// dataset found under the directory — newest intact snapshot, then the
// WAL tail with torn-tail truncation — and schedules a fresh detection
// round for each dataset whose appends outrun its published result, so
// the service resumes exactly where the previous process died.
func Open(cfg Config) (*Registry, error) {
	cfg.Options.Workers = pool.Clamp(cfg.Options.Workers)
	r := &Registry{
		cfg:      cfg,
		sets:     make(map[string]*Managed),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		compactC: make(chan *Managed, 128),
	}
	if r.cfg.DataDir != "" {
		if err := r.recover(); err != nil {
			return nil, err
		}
	}
	r.wg.Add(1)
	go r.scheduler()
	if r.cfg.DataDir != "" {
		r.wg.Add(1)
		go r.compactor()
		// Resume the dirty-dataset scheduler for recovered datasets whose
		// appends outran their published round.
		for _, m := range r.sets {
			if m.dirty {
				r.kickAsync()
				break
			}
		}
	}
	return r, nil
}

// recover scans the data directory and rebuilds every dataset.
func (r *Registry) recover() error {
	root := datasetsRoot(r.cfg.DataDir)
	if err := os.MkdirAll(root, 0o777); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "config.json")); err != nil {
			// A crash between directory creation and the durable config
			// write: the Create was never acknowledged, discard it.
			discard(dir)
			continue
		}
		m, err := r.recoverDataset(dir)
		if err != nil {
			return err
		}
		if e.Name() != encodeDirName(m.name) {
			return fmt.Errorf("server: dataset directory %q holds config for %q", e.Name(), m.name)
		}
		r.sets[m.name] = m
		if m.gen > r.gen {
			r.gen = m.gen
		}
	}
	return nil
}

// datasets copies the current dataset list, sorted by name, out from
// under r.mu, so callers can visit each dataset's own lock without
// holding both.
func (r *Registry) datasets() []*Managed {
	r.mu.Lock()
	sets := make([]*Managed, 0, len(r.sets))
	for _, m := range r.sets {
		sets = append(sets, m)
	}
	r.mu.Unlock()
	sort.Slice(sets, func(i, j int) bool { return sets[i].name < sets[j].name })
	return sets
}

// Close stops the scheduler, cancels in-flight rounds and waits for them
// to return. The registry must not be used afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	sets := r.datasets()
	for _, m := range sets {
		m.shut()
	}
	close(r.stop)
	r.wg.Wait()
	// No round or compactor goroutine remains. Snapshot every dataset
	// the compactor had not caught up with, so a clean shutdown leaves
	// each newest round snapshotted and its WAL trimmed.
	var buf bytes.Buffer
	for _, m := range sets {
		m.snapshot(true, &buf)
		m.st.close(false)
	}
}

// DatasetConfig is what a dataset carries of its own: the copying-model
// priors. A zero field takes the paper's default (bayes.DefaultParams),
// the same on every registry, so replicas created by the same request
// agree.
type DatasetConfig struct {
	Params bayes.Params
}

// priors resolves cfg's priors, each zero field to its default.
func (cfg DatasetConfig) priors() bayes.Params {
	p := bayes.DefaultParams()
	if cfg.Params.Alpha != 0 {
		p.Alpha = cfg.Params.Alpha
	}
	if cfg.Params.S != 0 {
		p.S = cfg.Params.S
	}
	if cfg.Params.N != 0 {
		p.N = cfg.Params.N
	}
	return p
}

// newManaged builds the in-memory shell of a dataset. Create and
// recovery both start here.
func (r *Registry) newManaged(name string, gen uint64, params bayes.Params) *Managed {
	m := &Managed{
		name:    name,
		gen:     gen,
		params:  params,
		reg:     r,
		builder: dataset.NewBuilder(),
	}
	m.cond = sync.NewCond(&m.mu)
	m.unpublished = renderReads(name, gen, nil)
	return m
}

// Create registers an empty dataset. It fails with ErrExists when the
// name is taken and validates the resolved priors.
func (r *Registry) Create(name string, cfg DatasetConfig) (*Managed, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty dataset name")
	}
	params := cfg.priors()
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("server: dataset %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("server: registry closed")
	}
	if _, ok := r.sets[name]; ok {
		return nil, ErrExists
	}
	m := r.newManaged(name, r.gen+1, params)
	st, err := r.createStore(m)
	if err != nil {
		return nil, err
	}
	m.st = st
	r.gen = m.gen
	r.sets[name] = m
	return m, nil
}

// Get returns the managed dataset with the given name.
func (r *Registry) Get(name string) (*Managed, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.sets[name]
	return m, ok
}

// Delete unregisters a dataset, cancelling its in-flight round if any.
// It reports whether the name existed.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	m, ok := r.sets[name]
	if ok {
		delete(r.sets, name)
	}
	r.mu.Unlock()
	if ok {
		r.deletes.Add(1)
		// The in-flight round and compactor see m.closed and stand down.
		m.shut()
		m.st.close(true)
	}
	return ok
}

// List returns the registered dataset names in sorted order.
func (r *Registry) List() []string {
	sets := r.datasets()
	names := make([]string, len(sets))
	for i, m := range sets {
		names[i] = m.name
	}
	return names
}

// Quiesce blocks until the named dataset has converged — every append is
// covered by a completed detection round — and returns the published
// result (nil for a dataset that never received observations). It
// returns early with the context error on cancellation and ErrNotFound
// if the dataset is deleted while waiting.
func (r *Registry) Quiesce(ctx context.Context, name string) (*Published, error) {
	m, ok := r.Get(name)
	if !ok {
		return nil, ErrNotFound
	}
	// A cancelled context must wake the wait below.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.convergedLocked() && !m.closed && ctx.Err() == nil {
		m.cond.Wait()
	}
	if m.closed {
		return nil, ErrNotFound
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.pub, nil
}
