// The round scratch: every round of a registry runs in the same memory
// (roundScratch), and what it publishes must not depend on what that
// memory held before.
package server

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/index"
	"copydetect/internal/testkit"
)

// poison overwrites the memory sc carries with junk and reports how many
// elements it wrote: every element of every slice reachable from sc, up
// to the slice's capacity and not only its length.
// Floats become NaN, bits and flags set, and an integer its own index in
// its slice, which looks like a valid id, count or stamp to a round that
// reads it before writing it. A pair map carries its emptiness as well as
// its memory (a round empties it with Reset, which visits only the pairs
// in it), so it gets junk pairs instead. Scalars outside slices are state,
// which Run resets, and are left alone.
func poison(sc *roundScratch) int {
	return poisonAt(reflect.ValueOf(sc).Elem(), false, 0)
}

// poisonAt poisons v, element at of a slice when inBuf is set.
func poisonAt(v reflect.Value, inBuf bool, at int) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		if pm, ok := v.Interface().(*index.PairMap); ok {
			n := pm.NumSources()
			for a := 0; a < n/2; a++ {
				pm.GetOrAdd(dataset.SourceID(a), dataset.SourceID(n-1-a))
			}
			return n / 2
		}
		return poisonAt(v.Elem(), inBuf, at)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n += poisonAt(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), inBuf, at)
		}
		return n
	case reflect.Slice:
		s, n := v.Slice(0, v.Cap()), 0
		for i := 0; i < s.Len(); i++ {
			n += poisonAt(s.Index(i), true, i)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += poisonAt(v.Index(i), inBuf, at)
		}
		return n
	}
	if !inBuf {
		return 0
	}
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(at))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(math.MaxUint64 >> (64 - 8*v.Type().Size()))
	case reflect.Bool:
		v.SetBool(true)
	default:
		return 0
	}
	return 1
}

// TestPoisonedScratchPublishesTheSame is TestPublishedIsFunctionOfVersion
// with the round scratch filled with junk before every round: a round
// after the first finds the buffers of the one before, poisoned, and must
// publish the batch run's outcome of its version all the same, for
// workers 1 and 4, on a Book-CS shape (the entry walk) and a Stock shape
// (the pair sweep), each loaded in one append and refreshed in small ones
// (refreshBatches). Every round is checked, and so is the round before it
// once the next poisoning has happened: nothing a round publishes may sit
// in the memory the scratch carries on. The detector must also end every
// round as a fresh one ends the same run: with the same pass statistics
// (History) and the same working memory up to its buffers' lengths. A
// count that a round reads before writing changes which pass settles a
// pair long before it changes a decision, and may change neither.
func TestPoisonedScratchPublishesTheSame(t *testing.T) {
	var poisoned, junkBaseA atomic.Int64
	var sc *roundScratch        // the scratch of the last round run
	var served []core.PassStats // its detector's History
	testHookBetweenRounds = func(s *roundScratch) {
		poisoned.Add(int64(poison(s)))
		// A stale copy of the base accuracies would freeze the wrong base,
		// so that buffer must be among the poisoned ones.
		baseA := reflect.ValueOf(workingMemory(&s.det)).FieldByName("baseA")
		if baseA.Len() > 0 && math.IsNaN(baseA.Index(0).Float()) {
			junkBaseA.Add(1)
		}
		sc = s
		s.tf.OnRound = func(int, *dataset.Dataset, *bayes.State, *core.Result) {
			served = append(served[:0], s.det.History...)
		}
	}
	defer func() { testHookBetweenRounds = nil }()

	for _, pr := range testkit.Lookup("book-cs-x0.2", "stock-1day-x0.008") {
		ds := testkit.Generate(t, pr)
		truth := dataset.TruthRecords(ds)
		batches := refreshBatches(dataset.Records(ds))
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", pr.ID, workers), func(t *testing.T) {
				reg := NewRegistry(Config{Options: core.Options{Workers: workers}})
				defer reg.Close()
				m, err := reg.Create("d", DatasetConfig{})
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				var prev *Published
				var prevWant *fusion.Outcome
				for i, batch := range batches {
					var tr []dataset.Record
					if i == len(batches)-1 {
						tr = truth
					}
					poisoned.Store(0)
					junkBaseA.Store(0)
					if _, _, err := m.Append(batch, tr); err != nil {
						t.Fatalf("append: %v", err)
					}
					pub := quiesce(t, reg, "d")
					if i > 0 && (poisoned.Load() == 0 || junkBaseA.Load() == 0) {
						t.Fatalf("round %d: the scratch carried no memory to poison, or no base accuracies", pub.Round)
					}
					if prev != nil {
						if d := testkit.Diff(prev.Outcome, prevWant, untimed...); d != "" {
							t.Fatalf("round %d changed after round %d was poisoned: %s", prev.Round, pub.Round, d)
						}
					}
					_, want, fresh := batchRun(batches[:i+1], tr, workers)
					if d := testkit.Diff(pub.Outcome, want, untimed...); d != "" {
						t.Fatalf("round %d of version %d differs from the batch run: %s", pub.Round, pub.Version, d)
					}
					if d := testkit.Diff(served, fresh.History); d != "" || len(served) == 0 {
						t.Fatalf("round %d: pass statistics differ from a fresh detector's (%d rounds): %s", pub.Round, len(served), d)
					}
					if d := testkit.Diff(workingMemory(&sc.det), workingMemory(fresh)); d != "" {
						t.Fatalf("round %d: the detector's working memory differs from a fresh detector's: %s", pub.Round, d)
					}
					prev, prevWant = pub, want
				}
			})
		}
	}
}

// workingMemory is the memory an INCREMENTAL detector carries from one Run
// to the next (its incBufs), as a value Diff compares up to each buffer's
// length.
func workingMemory(det *core.Incremental) any {
	f := reflect.ValueOf(det).Elem().FieldByName("incBufs")
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// refreshBatches splits recs the way a refresh workload appends them: most
// in one load, the rest in four small appends, each of which grows the
// dataset by a few per cent, so its round finds the scratch's buffers
// large enough (headroom) and runs in the memory the last round left.
func refreshBatches(recs []dataset.Record) [][]dataset.Record {
	load := len(recs) - len(recs)/10
	return append([][]dataset.Record{recs[:load]}, testkit.Batches(recs[load:], 4)...)
}

// TestScratchServesDatasetsInTurn: one scratch serves every dataset of the
// registry. A Book-CS-shaped dataset and a much smaller Stock-shaped one
// (other sources, other pair maps) take turns, a batch each, and each
// publishes its own batch run's outcome at every version.
func TestScratchServesDatasetsInTurn(t *testing.T) {
	type stream struct {
		name    string
		batches [][]dataset.Record
	}
	var streams []stream
	for _, pr := range []testkit.Preset{streamPreset, testkit.Lookup("stock-1day-x0.008")[0]} {
		ds := testkit.Generate(t, pr)
		streams = append(streams, stream{pr.ID, testkit.Batches(dataset.Records(ds), 4)})
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := NewRegistry(Config{Options: core.Options{Workers: workers}})
			defer reg.Close()
			for _, s := range streams {
				if _, err := reg.Create(s.name, DatasetConfig{}); err != nil {
					t.Fatalf("create: %v", err)
				}
			}
			for i := 0; i < 4; i++ {
				for _, s := range streams {
					m, _ := reg.Get(s.name)
					if _, _, err := m.Append(s.batches[i], nil); err != nil {
						t.Fatalf("append: %v", err)
					}
					pub := quiesce(t, reg, s.name)
					_, want := batchOutcome(s.batches[:i+1], nil, workers)
					if d := testkit.Diff(pub.Outcome, want, untimed...); d != "" {
						t.Fatalf("%s, version %d: differs from its batch run: %s", s.name, pub.Version, d)
					}
				}
			}
		})
	}
}

// TestDeleteDropsScratch pins the rule that keeps a deleted dataset from
// pinning the scratch's high-water mark: the first round after a Delete
// starts from an empty scratch. Without one the scratch carries on.
func TestDeleteDropsScratch(t *testing.T) {
	var carried atomic.Int64 // by the last round
	testHookBetweenRounds = func(sc *roundScratch) {
		carried.Store(int64(poison(sc)))
	}
	defer func() { testHookBetweenRounds = nil }()
	reg := NewRegistry(Config{})
	defer reg.Close()
	recs := dataset.Records(testkit.Generate(t, streamPreset))
	small := len(recs) / 4
	for _, d := range []struct {
		name string
		n    int
	}{{"big", len(recs)}, {"small", small}} {
		m, err := reg.Create(d.name, DatasetConfig{})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, _, err := m.Append(recs[:d.n], nil); err != nil {
			t.Fatalf("append: %v", err)
		}
		quiesce(t, reg, d.name)
	}
	if carried.Load() == 0 {
		t.Fatal("the second dataset's round found an empty scratch; nothing is carried")
	}
	reg.Delete("big")
	m, _ := reg.Get("small")
	if _, _, err := m.Append(recs[small:small+10], nil); err != nil {
		t.Fatalf("append: %v", err)
	}
	quiesce(t, reg, "small")
	if n := carried.Load(); n != 0 {
		t.Fatalf("the first round after a Delete found %d carried elements, want an empty scratch", n)
	}
}

// TestRefreshRoundAllocationBound bounds what one refresh op of the daemon
// allocates on batch-book-cs's serve shape, Book-CS×0.5 at two workers: a
// 50-record append to a converged dataset, its round and publish, and the
// compactor's snapshot of it, counted over every goroutine. With a fresh
// detector, fresh fusion buffers and a fresh encode buffer every round,
// these ops allocated 20 MB each (BenchmarkRefresh's Book-CS×0.5 op, on a
// smaller start, 14.1–14.4 MB); carried memory (roundScratch) must keep
// them under 7.2 MB, half the smaller figure, once the scratch is warm.
// The objects are bounded too: a deep copy of INCREMENTAL's base state
// and a throw-away first fusion state, one row per item each, took an op
// from about 2 500 objects to about 5 000, and 3 500 lies between.
// The median of nine ops is checked: an op whose process runs more
// iterative rounds, or meets a new source and so new pair maps, allocates
// more, and does not decide.
func TestRefreshRoundAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and serves Book-CS×0.5")
	}
	const batch, warm, ops, bound, objBound = 50, 3, 9, 7.2e6, 3500
	recs := dataset.Records(testkit.Generate(t, testkit.Lookup("book-cs-x0.5")[0]))
	held := recs[len(recs)-(warm+ops)*batch:]
	reg, err := Open(Config{DataDir: t.TempDir(), Options: core.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.Create("refresh", DatasetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	refresh := func(recs []dataset.Record) {
		t.Helper()
		if _, _, err := m.Append(recs, nil); err != nil {
			t.Fatal(err)
		}
		pub := quiesce(t, reg, "refresh")
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			m.st.mu.Lock()
			done := m.st.snapVersion >= pub.Version
			m.st.mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no snapshot of version %d", pub.Version)
			}
		}
	}
	refresh(recs[:len(recs)-len(held)])
	var per, objs []float64
	for i := 0; i < warm+ops; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refresh(held[i*batch : (i+1)*batch])
		runtime.ReadMemStats(&after)
		if i >= warm {
			per = append(per, float64(after.TotalAlloc-before.TotalAlloc))
			objs = append(objs, float64(after.Mallocs-before.Mallocs))
		}
	}
	sort.Float64s(per)
	sort.Float64s(objs)
	t.Logf("bytes allocated per refresh op: %.0f", per)
	t.Logf("objects allocated per refresh op: %.0f", objs)
	if med := per[len(per)/2]; med > bound {
		t.Fatalf("a warm refresh op allocates %.2f MB (median of %d), bound %.1f MB", med/1e6, ops, bound/1e6)
	}
	if med := objs[len(objs)/2]; med > objBound {
		t.Fatalf("a warm refresh op allocates %.0f objects (median of %d), bound %d", med, ops, objBound)
	}
}
