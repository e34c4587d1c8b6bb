package server

import (
	"bytes"
	"sort"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/fusion"
)

// testHookRoundStart, when non-nil, runs at the start of every
// detection round, after the snapshot is taken and before detection
// begins (no locks held). Tests block here to let convergence lag grow
// deterministically past the admission high-water mark. Test-only.
var testHookRoundStart func(m *Managed)

// testHookBetweenRounds, when non-nil, runs on the scheduler goroutine
// before every round with the scratch the round is about to run in.
// Test-only.
var testHookBetweenRounds func(sc *roundScratch)

// roundScratch is the memory the scheduler's rounds work in: the truth
// finder and the detector every round runs. Run starts each of them over —
// priors, a fresh iterative process on the round's own snapshot — and
// keeps only their buffers (fusion.TruthFinder, core.Incremental.Reset),
// so a round computes exactly what it would on new ones and allocates
// little more than what it publishes, none of which is in here. Only the
// scheduler goroutine runs rounds, so the registry has one scratch, sized
// by the largest dataset it has served since the last Delete, which drops
// it (Registry.deletes).
type roundScratch struct {
	tf  fusion.TruthFinder
	det core.Incremental
}

// kickAsync nudges the scheduler without blocking.
func (r *Registry) kickAsync() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// quietPeriod is how long a dataset must have gone without a write
// before the scheduler starts a round on it. A round started sooner, in
// the middle of a bulk ingest, is cancelled by the next append after a
// snapshot under the lock that append needs and a burst of work on every
// core: 2 ms is ten times a loopback client's turn-around between two
// appends and under 5 % of the shortest refresh operation the benchmark
// measures (DESIGN.md, "Serving layer", has the numbers).
const quietPeriod = 2 * time.Millisecond

// scheduler is the registry's dirty-dataset loop: whenever kicked it
// claims a dirty dataset that is ready for a round and runs the round
// itself, then claims the next, until none is ready. One round runs at a
// time, and a claim is followed at once by its round, so a round starts
// only on a dataset that claimDirty found ready a moment before. A
// dataset passed over because it was written to less than quietPeriod
// ago is looked at again when that time is up, by a timer that kicks the
// loop — at most one is pending — so an append that nothing follows
// needs no second kick to get its round.
func (r *Registry) scheduler() {
	defer r.wg.Done()
	var sc roundScratch
	deletes := r.deletes.Load()
	// quiet is the pending second look, if any. One that a kick overtakes
	// still fires, and finds nothing new to do.
	var quiet *time.Timer
	stopQuiet := func() {
		if quiet != nil {
			quiet.Stop()
		}
	}
	defer stopQuiet()
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
		}
		for {
			m, wait := r.claimDirty()
			if m == nil {
				if wait > 0 {
					stopQuiet()
					quiet = time.AfterFunc(wait, r.kickAsync)
				}
				break
			}
			if d := r.deletes.Load(); d != deletes {
				sc, deletes = roundScratch{}, d
			}
			if testHookBetweenRounds != nil {
				testHookBetweenRounds(&sc)
			}
			// A dataset that went dirty again mid-round (cancelled or
			// stale snapshot) is claimed again by the next pass.
			m.runRound(&sc)
		}
	}
}

// claimDirty picks a dirty, idle dataset and marks it running. It scans
// in name order starting after the dataset it claimed last, wrapping
// around, so datasets that stay dirty take turns. It passes over a
// dataset that the next append would take the round away from again:
// one with an append request inside the handler, whose end kicks the
// scheduler, and one written to less than quietPeriod ago. When it
// claims nothing, wait is how long until the first of the latter is due
// (0: none is waiting).
func (r *Registry) claimDirty() (claimed *Managed, wait time.Duration) {
	sets := r.datasets()
	r.mu.Lock()
	last := r.lastClaim
	r.mu.Unlock()
	first := sort.Search(len(sets), func(i int) bool { return sets[i].name > last })
	for i := range sets {
		m := sets[(first+i)%len(sets)]
		m.mu.Lock()
		if m.dirty && !m.running && !m.closed && m.appending == 0 {
			if due := quietPeriod - time.Since(m.lastWrite); due <= 0 {
				m.running = true
				claimed = m
			} else if wait == 0 || due < wait {
				wait = due
			}
		}
		m.mu.Unlock()
		if claimed != nil {
			r.mu.Lock()
			r.lastClaim = m.name
			r.mu.Unlock()
			return claimed, 0
		}
	}
	return nil, wait
}

// runRound executes one detection round in sc: snapshot the builder, run
// the full iterative process on it, render the outcome's read bodies, and
// publish them with it if the snapshot is still current. Stale or
// cancelled rounds re-mark the dataset dirty.
func (m *Managed) runRound(sc *roundScratch) {
	m.mu.Lock()
	if m.closed || !m.dirty {
		m.running = false
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	// The round this one becomes if it is published: an import, which
	// may raise rounds, also moves version, and then nothing publishes.
	version, round, interning := m.version, m.rounds+1, m.interning
	m.dirty = false
	cancel := make(chan struct{})
	m.cancel = cancel
	snap := m.builder.Build()
	m.mu.Unlock()

	if testHookRoundStart != nil {
		testHookRoundStart(m)
	}

	// Every round restarts the iterative process from priors on its own
	// snapshot, with fresh state in carried memory (roundScratch), so what
	// it publishes depends on the snapshot alone, never on the rounds
	// before it. params are immutable after Create and the options after
	// Open; no lock needed here.
	const algo = "INCREMENTAL"
	opts := m.reg.cfg.Options
	sc.tf.Params, sc.tf.Workers, sc.tf.Cancel = m.params, opts.Workers, cancel
	sc.det.Params, sc.det.Opts = m.params, opts
	start := time.Now()
	out := sc.tf.Run(snap, &sc.det)
	wall := time.Since(start)
	// Between rounds the scratch holds memory only, not this round's
	// snapshot or state.
	sc.tf.Cancel = nil
	sc.det.Reset()

	// The read bodies are rendered here, outside every lock, so that no
	// read renders one; a round an append has already cancelled renders
	// nothing.
	var pub *Published
	select {
	case <-cancel:
	default:
		if out != nil {
			pub = m.newPublished(Published{
				Version:   version,
				Round:     round,
				Algorithm: algo,
				Snapshot:  snap,
				Outcome:   out,
				Wall:      wall,
			}, interning)
		}
	}

	// Publish: the staleness check and the swap are one critical section
	// under mu, with no disk write in it. A cancelled round (pub == nil)
	// takes the same path although it has nothing to publish.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cancel == cancel {
		m.cancel = nil
	}
	if pub != nil && !m.closed && m.version == version {
		m.rounds = round
		m.pub = pub
		if in := m.reg.inst.Load(); in != nil {
			in.roundDuration.With(algo).Observe(wall.Seconds())
			in.roundsTotal.With(algo).Inc()
			in.roundComps.With(algo).Add(uint64(out.TotalStats.Computations))
			in.roundValues.With(algo).Add(uint64(out.TotalStats.ValuesExamined))
		}
		if m.st != nil && !testNoCompactOffer {
			select {
			case m.reg.compactC <- m:
			default:
				// Compactor backlog: the next publish offers again.
			}
		}
	} else {
		// Cancelled or stale: the appends that invalidated this round
		// already set dirty, but a cancelled round with no version change
		// cannot happen, so this is belt and braces.
		if !m.closed {
			m.dirty = true
		}
		if in := m.reg.inst.Load(); in != nil {
			in.roundsAbandoned.Inc()
		}
	}
	m.running = false
	m.cond.Broadcast()
}

// compactor is the registry's background snapshot-and-trim loop. It
// runs the expensive work — encoding the published dataset and outcome,
// fsyncing the snapshot, deleting covered WAL segments — off the append
// and detection paths.
//
// Its encode buffer is kept from one snapshot to the next, so a snapshot
// costs no allocation while the dataset fits what an earlier one grew the
// buffer to; a Delete drops it, as it drops the round scratch.
func (r *Registry) compactor() {
	defer r.wg.Done()
	var buf bytes.Buffer
	deletes := r.deletes.Load()
	for {
		select {
		case <-r.stop:
			return
		case m := <-r.compactC:
			if d := r.deletes.Load(); d != deletes {
				buf, deletes = bytes.Buffer{}, d
			}
			m.snapshot(false, &buf)
		}
	}
}

// snapshot persists the last published round, encoded in buf, and trims
// the WAL prefix it covers (see dstore.compact). With final set (registry
// shutdown) it also runs for datasets already marked closed.
func (m *Managed) snapshot(final bool, buf *bytes.Buffer) {
	m.mu.Lock()
	pub, closed := m.pub, m.closed
	m.mu.Unlock()
	if pub != nil && (final || !closed) {
		m.st.compact(pub, buf)
	}
}
