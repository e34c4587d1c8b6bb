// Hysteresis tests for the backend health state machine, with the
// concurrency the gateway actually produces: the prober and many proxy
// requests report into one backend at the same time. Run under -race.
package cluster

import (
	"fmt"
	"sync"
	"testing"
)

// eject / readmit drive the deterministic halves of the state machine.
func eject(b *backend) {
	for i := 0; i < ejectAfter; i++ {
		b.reportFailure(fmt.Errorf("down"))
	}
}

func readmit(b *backend) {
	for i := 0; i < readmitAfter; i++ {
		b.reportSuccess(true)
	}
}

// TestHysteresisProxySuccessNeverReadmits: readmission is probe-driven
// by design — the proxy never sends requests to an ejected backend, so
// a straggler proxy success (a response that was in flight when the
// ejection landed) must not readmit, no matter how many arrive or how
// they race.
func TestHysteresisProxySuccessNeverReadmits(t *testing.T) {
	b := newBackend("http://x", 0)
	eject(b)
	if b.isHealthy() {
		t.Fatal("not ejected after 2 failures")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.reportSuccess(false) // proxy straggler
			}
		}()
	}
	wg.Wait()
	if b.isHealthy() {
		t.Fatal("proxy successes readmitted an ejected backend")
	}
	// Probes still readmit afterwards — the stragglers must not have
	// wedged the counter either.
	readmit(b)
	if !b.isHealthy() {
		t.Fatal("stuck ejected after 2 consecutive probe successes")
	}
}

// TestHysteresisNoEarlyReadmitUnderInterleaving: a probe success
// interleaved with a failure resets the readmission streak — the
// backend must not flap back early on non-consecutive successes.
func TestHysteresisNoEarlyReadmitUnderInterleaving(t *testing.T) {
	b := newBackend("http://x", 0)
	eject(b)
	for round := 0; round < 50; round++ {
		b.reportSuccess(true) // one success is not enough...
		if b.isHealthy() {
			t.Fatalf("round %d: readmitted after a single probe success", round)
		}
		b.reportFailure(fmt.Errorf("flap")) // ...and a failure resets the streak
		if b.isHealthy() {
			t.Fatalf("round %d: healthy after a failure while ejected", round)
		}
	}
	readmit(b)
	if !b.isHealthy() {
		t.Fatal("stuck ejected after genuinely consecutive successes")
	}
}

// TestHysteresisNoEarlyEjectUnderInterleaving: the mirror image — a
// success between failures resets the ejection streak, so a healthy
// backend with every failure answered by a success never gets ejected.
func TestHysteresisNoEarlyEjectUnderInterleaving(t *testing.T) {
	b := newBackend("http://x", 0)
	for round := 0; round < 50; round++ {
		b.reportFailure(fmt.Errorf("blip"))
		if !b.isHealthy() {
			t.Fatalf("round %d: ejected after a single failure", round)
		}
		b.reportSuccess(false) // a proxy success also resets the streak
	}
	eject(b)
	if b.isHealthy() {
		t.Fatal("not ejected after genuinely consecutive failures")
	}
}

// TestHysteresisRaceProbeVsProxy hammers the state machine from three
// directions at once — probe successes, proxy successes, proxy
// failures — the exact interleaving a slow backend under load produces.
// Under -race this proves the counters are properly locked; afterwards
// the machine must still be in a legal state and respond to the
// deterministic sequences (no wedged counters, no stuck ejection).
func TestHysteresisRaceProbeVsProxy(t *testing.T) {
	for _, start := range []string{"healthy", "ejected"} {
		start := start
		t.Run(start, func(t *testing.T) {
			b := newBackend("http://x", 0)
			if start == "ejected" {
				eject(b)
			}
			var wg sync.WaitGroup
			hammer := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						f()
					}
				}()
			}
			hammer(func() { b.reportSuccess(true) })
			hammer(func() { b.reportSuccess(false) })
			hammer(func() { b.reportFailure(fmt.Errorf("raced")) })
			hammer(func() { _ = b.status() })
			hammer(func() { _ = b.isHealthy() })
			wg.Wait()

			// Legal state: the snapshot is internally consistent.
			st := b.status()
			if st.ConsecutiveFailures < 0 || st.ConsecutiveSuccesses < 0 {
				t.Fatalf("negative streaks: %+v", st)
			}
			if st.Healthy && st.ConsecutiveSuccesses != 0 {
				t.Fatalf("healthy backend carries a readmission streak: %+v", st)
			}
			// Whatever the race left behind, the deterministic protocol
			// still drives it: eject, then readmit — never stuck.
			eject(b)
			if b.isHealthy() {
				t.Fatal("cannot eject after the race")
			}
			readmit(b)
			if !b.isHealthy() {
				t.Fatal("stuck ejected after the race")
			}
		})
	}
}
