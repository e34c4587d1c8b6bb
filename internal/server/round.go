package server

import (
	"time"

	"copydetect/internal/core"
	"copydetect/internal/fusion"
)

// testHookRoundStart, when non-nil, runs at the start of every
// detection round, after the snapshot is taken and before detection
// begins (no locks held). Tests block here to let convergence lag grow
// deterministically past the admission high-water mark. Test-only.
var testHookRoundStart func(m *Managed)

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
// claims every dirty dataset that is ready for a round and runs one for
// each, at most Config.Concurrency at a time. A dataset passed over
// because it was written to less than quietPeriod ago is looked at again
// when that time is up, by a timer that kicks the loop — at most one is
// pending — so an append that nothing follows needs no second kick to
// get its round.
func (r *Registry) scheduler() {
	defer r.wg.Done()
	sem := make(chan struct{}, r.cfg.Concurrency)
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
			select {
			case sem <- struct{}{}:
			case <-r.stop:
				m.mu.Lock()
				m.running = false
				m.cond.Broadcast()
				m.mu.Unlock()
				return
			}
			r.wg.Add(1)
			go func(m *Managed) {
				defer r.wg.Done()
				defer func() { <-sem }()
				m.runRound()
				// The dataset may have gone dirty again mid-round
				// (cancelled or stale snapshot): let the loop reclaim it.
				r.kickAsync()
			}(m)
		}
	}
}

// claimDirty picks a dirty, idle dataset (smallest name first, for
// determinism) and marks it running. It passes over a dataset that the
// next append would take the round away from again: one with an append
// request inside the handler, whose end kicks the scheduler, and one
// written to less than quietPeriod ago. When it claims nothing, wait is
// how long until the first of the latter is due (0: none is waiting).
func (r *Registry) claimDirty() (claimed *Managed, wait time.Duration) {
	for _, m := range r.datasets() {
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
			return claimed, 0
		}
	}
	return nil, wait
}

// runRound executes one detection round: snapshot the builder, run the
// full iterative process on it, and publish the outcome if the snapshot
// is still current. Stale or cancelled rounds re-mark the dataset dirty.
func (m *Managed) runRound() {
	m.mu.Lock()
	if m.closed || !m.dirty {
		m.running = false
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	version := m.version
	m.dirty = false
	cancel := make(chan struct{})
	m.cancel = cancel
	snap := m.builder.Build()
	m.mu.Unlock()

	if testHookRoundStart != nil {
		testHookRoundStart(m)
	}

	// Every round restarts the iterative process from priors on its own
	// snapshot with a fresh detector, so what it publishes depends on the
	// snapshot alone, never on the rounds before it. params and opts are
	// immutable after Create; no lock needed here.
	const algo = "INCREMENTAL"
	tf := &fusion.TruthFinder{Params: m.params, Workers: m.opts.Workers, Cancel: cancel}
	start := time.Now()
	out := tf.Run(snap, &core.Incremental{Params: m.params, Opts: m.opts})
	wall := time.Since(start)

	// Publish: the staleness check and the swap are one critical section
	// under mu, with no disk write in it. A cancelled round (out == nil)
	// takes the same path although it has nothing to publish.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cancel == cancel {
		m.cancel = nil
	}
	if out != nil && !m.closed && m.version == version {
		m.rounds++
		m.pub = &Published{
			Version:   version,
			Round:     m.rounds,
			Algorithm: algo,
			Snapshot:  snap,
			Outcome:   out,
			Wall:      wall,
		}
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
func (r *Registry) compactor() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case m := <-r.compactC:
			m.snapshot(false)
		}
	}
}

// snapshot persists the last published round and trims the WAL prefix
// it covers (see dstore.compact). With final set (registry shutdown) it
// also runs for datasets already marked closed.
func (m *Managed) snapshot(final bool) {
	m.mu.Lock()
	pub, closed := m.pub, m.closed
	m.mu.Unlock()
	if pub != nil && (final || !closed) {
		m.st.compact(pub)
	}
}
