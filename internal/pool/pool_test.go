package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestOwns(t *testing.T) {
	// workers <= 1: the single worker owns everything, including ids the
	// modulo would reject.
	for _, workers := range []int{-3, 0, 1} {
		for _, id := range []int{0, 1, 17, 1 << 20} {
			if !Owns(workers, 0, id) {
				t.Errorf("Owns(%d, 0, %d) = false, want true", workers, id)
			}
		}
	}
	// Multi-worker: every id is owned by exactly one worker, and that
	// worker is id%workers — the contract every sharded kernel relies on
	// (their shard functions must agree exactly; see DESIGN.md).
	for _, workers := range []int{2, 3, 7} {
		for id := 0; id < 100; id++ {
			owners := 0
			for w := 0; w < workers; w++ {
				if Owns(workers, w, id) {
					owners++
					if w != id%workers {
						t.Errorf("Owns(%d, %d, %d) true, want owner %d", workers, w, id, id%workers)
					}
				}
			}
			if owners != 1 {
				t.Errorf("workers=%d id=%d has %d owners, want exactly 1", workers, id, owners)
			}
		}
	}
}

// TestOwner: Owner names the one worker for which Owns holds.
func TestOwner(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 3, 7} {
		for id := 0; id < 100; id++ {
			w := Owner(workers, id)
			if w < 0 || w >= Clamp(workers) || !Owns(workers, w, id) {
				t.Errorf("Owner(%d, %d) = %d, which does not own it", workers, id, w)
			}
		}
	}
}

// TestBlock: the blocks of every worker count tile [0, n) in worker
// order, with sizes that differ by at most one.
func TestBlock(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 5, 7, 64, 1000} {
			next, smallest, largest := 0, n, 0
			for w := 0; w < Clamp(workers); w++ {
				lo, hi := Block(workers, w, n)
				if lo != next || hi < lo {
					t.Fatalf("Block(%d, %d, %d) = [%d, %d), want it to start at %d", workers, w, n, lo, hi, next)
				}
				next = hi
				smallest, largest = min(smallest, hi-lo), max(largest, hi-lo)
			}
			if next != n {
				t.Errorf("workers=%d: blocks end at %d, want %d", workers, next, n)
			}
			if largest-smallest > 1 {
				t.Errorf("workers=%d n=%d: block sizes range from %d to %d", workers, n, smallest, largest)
			}
		}
	}
}

// TestRunCallerShardPanicReleasesWorkers covers Run's error path: fn(0)
// runs on the calling goroutine, so a panic there propagates to the
// caller and skips the drain loop. The done channel is buffered for
// exactly this case — the spawned workers must still run to completion
// and exit instead of leaking, blocked on an undrained channel.
func TestRunCallerShardPanicReleasesWorkers(t *testing.T) {
	const workers = 8
	var ran atomic.Int32
	gate := make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic on shard 0 did not propagate to the caller")
			}
		}()
		Run(workers, func(w int) {
			if w == 0 {
				panic("shard 0 exploded")
			}
			<-gate // hold every worker until the caller has panicked
			ran.Add(1)
		})
	}()
	close(gate)
	// The workers were deliberately still running when the panic
	// propagated; they must all finish on their own.
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() != workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers completed after caller panic", ran.Load(), workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	goroutineSettle(t)
}

// goroutineSettle polls until the goroutine count returns to (near) the
// pre-test baseline, failing if workers leaked.
func goroutineSettle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= 8 { // test main + runtime helpers
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%d goroutines still alive long after Run returned", runtime.NumGoroutine())
}

func TestClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {64, 64},
	} {
		if got := Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestAuto(t *testing.T) {
	if got := Auto(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Auto() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestRunCoversAllShards(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 32} {
		var calls int64
		seen := make([]int32, Clamp(workers))
		Run(workers, func(w int) {
			atomic.AddInt64(&calls, 1)
			atomic.AddInt32(&seen[w], 1)
		})
		if int(calls) != Clamp(workers) {
			t.Errorf("workers=%d: %d calls, want %d", workers, calls, Clamp(workers))
		}
		for w, n := range seen {
			if n != 1 {
				t.Errorf("workers=%d: shard %d called %d times", workers, w, n)
			}
		}
	}
}

func TestShardsOrdered(t *testing.T) {
	got := Shards(7, func(w int) int { return w * w })
	if len(got) != 7 {
		t.Fatalf("len = %d, want 7", len(got))
	}
	for w, v := range got {
		if v != w*w {
			t.Errorf("shard %d = %d, want %d", w, v, w*w)
		}
	}
}

func TestShardsSequentialInline(t *testing.T) {
	// workers <= 1 must run on the calling goroutine (the sequential path
	// shares the kernel without goroutine overhead).
	var gid [2]int
	fill := func(i int) func(int) int {
		return func(w int) int { gid[i] = 1; return w }
	}
	if got := Shards(1, fill(0)); len(got) != 1 || got[0] != 0 {
		t.Errorf("Shards(1) = %v", got)
	}
	if got := Shards(0, fill(1)); len(got) != 1 || got[0] != 0 {
		t.Errorf("Shards(0) = %v", got)
	}
}
