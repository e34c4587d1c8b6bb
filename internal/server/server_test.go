// Acceptance suite for the serving layer. The anchor is batch
// equivalence: streaming a workload into the registry in batches and
// quiescing must publish an outcome byte-identical (wall-clock timers
// aside) to a one-shot batch INCREMENTAL run over the same final dataset
// — for sequential and sharded detection alike, and whatever rounds the
// registry published on the way.
package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/testkit"
)

// streamPreset is a Book-CS-style workload small enough to detect in
// milliseconds but large enough to keep candidate pairs (and INCREMENTAL
// refinement rounds) alive.
var streamPreset = testkit.Lookup("book-cs")[0]

// untimed masks what legitimately differs between two identical runs: the
// wall-clock timers.
var untimed = []string{"IndexBuild", "Detect", "FusionTime"}

func quiesce(t *testing.T, reg *Registry, name string) *Published {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pub, err := reg.Quiesce(ctx, name)
	if err != nil {
		t.Fatalf("quiesce %s: %v", name, err)
	}
	return pub
}

// batchOutcome is the reference every published round is held to: the
// batches replayed into a fresh Builder (reproducing id interning), then
// one from-priors INCREMENTAL run over the final dataset.
func batchOutcome(batches [][]dataset.Record, truth []dataset.Record, workers int) (*dataset.Dataset, *fusion.Outcome) {
	final, out, _ := batchRun(batches, truth, workers)
	return final, out
}

// batchRun is batchOutcome that also returns the fresh detector it ran,
// whose History holds the pass statistics of the run.
func batchRun(batches [][]dataset.Record, truth []dataset.Record, workers int) (*dataset.Dataset, *fusion.Outcome, *core.Incremental) {
	b := dataset.NewBuilder()
	for _, batch := range batches {
		b.AddRecords(batch)
	}
	for _, tr := range truth {
		b.SetTruth(tr.Item, tr.Value)
	}
	final := b.Build()
	params := bayes.DefaultParams()
	tf := &fusion.TruthFinder{Params: params, Workers: workers}
	det := &core.Incremental{Params: params, Opts: core.Options{Workers: workers}}
	return final, tf.Run(final, det), det
}

// TestStreamedEqualsBatch is the serving layer's acceptance test: N
// streamed appends followed by quiesce yield an outcome identical to one
// batch run over the same final dataset, for workers 1 and 4. The
// batches are appended with no waiting, so the scheduler's cancellation
// and re-run paths get exercised too.
func TestStreamedEqualsBatch(t *testing.T) {
	ds := testkit.Generate(t, streamPreset)
	truth := dataset.TruthRecords(ds)
	batches := testkit.Batches(dataset.Records(ds), 5)

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := NewRegistry(Config{Options: core.Options{Workers: workers}})
			defer reg.Close()
			m, err := reg.Create("stream", DatasetConfig{})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			for _, batch := range batches {
				if _, _, err := m.Append(batch, nil); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if _, _, err := m.Append(nil, truth); err != nil {
				t.Fatalf("append truth: %v", err)
			}
			pub := quiesce(t, reg, "stream")
			if pub == nil {
				t.Fatal("quiesced with no published round")
			}
			if want := uint64(len(batches) + 1); pub.Version != want {
				t.Fatalf("published version %d, want %d", pub.Version, want)
			}
			final, want := batchOutcome(batches, truth, workers)
			if d := testkit.Diff(pub.Snapshot, final, untimed...); d != "" {
				t.Fatalf("published snapshot differs from batch-built dataset: %s", d)
			}
			if diff := testkit.Diff(pub.Outcome, want, untimed...); diff != "" {
				t.Fatalf("streamed outcome differs from the batch run: %s", diff)
			}
			if len(pub.Outcome.Copy.CopyingPairs()) == 0 {
				t.Fatal("workload detected no copying pairs; enlarge the preset")
			}
		})
	}
}

// TestPublishedIsFunctionOfVersion: what a dataset serves for a version
// depends on the observations of that version alone, not on how many
// rounds were published on the way to it. The same batches go through
// two registries — one quiesced after every append, so it publishes a
// round per version, one never until the end — and both must publish
// the batch run's outcome, for workers 1 and 4.
func TestPublishedIsFunctionOfVersion(t *testing.T) {
	ds := testkit.Generate(t, streamPreset)
	truth := dataset.TruthRecords(ds)
	batches := testkit.Batches(dataset.Records(ds), 5)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			final, want := batchOutcome(batches, truth, workers)
			for _, quiesceEach := range []bool{true, false} {
				reg := NewRegistry(Config{Options: core.Options{Workers: workers}})
				defer reg.Close()
				m, err := reg.Create("d", DatasetConfig{})
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				for i, batch := range batches {
					var tr []dataset.Record
					if i == len(batches)-1 {
						tr = truth
					}
					if _, _, err := m.Append(batch, tr); err != nil {
						t.Fatalf("append: %v", err)
					}
					if quiesceEach {
						quiesce(t, reg, "d")
					}
				}
				pub := quiesce(t, reg, "d")
				if pub == nil || pub.Version != uint64(len(batches)) {
					t.Fatalf("quiesceEach=%v: published %+v, want version %d", quiesceEach, pub, len(batches))
				}
				if quiesceEach && pub.Round != len(batches) {
					t.Fatalf("quiesced after every append but published round %d, want %d", pub.Round, len(batches))
				}
				if d := testkit.Diff(pub.Snapshot, final, untimed...); d != "" {
					t.Fatalf("quiesceEach=%v: published snapshot differs from batch-built dataset: %s", quiesceEach, d)
				}
				if diff := testkit.Diff(pub.Outcome, want, untimed...); diff != "" {
					t.Fatalf("quiesceEach=%v: round %d of version %d differs from the batch run: %s", quiesceEach, pub.Round, pub.Version, diff)
				}
			}
		})
	}
}

// TestEmptyDatasetQuiesces pins the no-data corner: a freshly created
// dataset is trivially converged and quiesce returns without a round.
func TestEmptyDatasetQuiesces(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	if _, err := reg.Create("empty", DatasetConfig{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if pub := quiesce(t, reg, "empty"); pub != nil {
		t.Fatalf("empty dataset published %+v, want nil", pub)
	}
	m, _ := reg.Get("empty")
	if !m.Converged() {
		t.Fatal("empty dataset not converged")
	}
}

// TestRegistryLifecycle covers create/list/delete and the error paths.
func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()

	if _, err := reg.Create("", DatasetConfig{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := reg.Create("a", DatasetConfig{}); err != nil {
		t.Fatalf("create a: %v", err)
	}
	if _, err := reg.Create("a", DatasetConfig{}); err != ErrExists {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if _, err := reg.Create("bad", DatasetConfig{Params: bayes.Params{Alpha: 2, S: 0.8, N: 100}}); err == nil {
		t.Fatal("invalid priors accepted")
	}
	if _, err := reg.Create("b", DatasetConfig{Params: bayes.Params{S: 0.5}}); err != nil {
		t.Fatalf("create b: %v", err)
	}
	if got := reg.List(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("List() = %v", got)
	}
	// An omitted prior is the paper's default; the worker count is the
	// registry's, 1 for a zero Options.Workers.
	if m, _ := reg.Get("b"); m.Info() != (Info{Name: "b", Converged: true, Workers: 1, Alpha: 0.1, S: 0.5, N: 100}) {
		t.Fatalf("dataset b = %+v, want s = 0.5, the other priors defaulted, 1 worker", m.Info())
	}
	if !reg.Delete("a") || reg.Delete("a") {
		t.Fatal("delete semantics broken")
	}
	if _, err := reg.Quiesce(context.Background(), "a"); err != ErrNotFound {
		t.Fatalf("quiesce deleted: %v, want ErrNotFound", err)
	}
}

// TestQuiesceHonorsContext ensures context expiry and dataset deletion
// both unblock waiters stuck on a dataset that never converges. The
// dirty flag is set by hand, without kicking the scheduler, so no round
// ever covers it.
func TestQuiesceHonorsContext(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	m, err := reg.Create("stuck", DatasetConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	m.mu.Lock()
	m.dirty = true
	m.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := reg.Quiesce(ctx, "stuck"); err != context.DeadlineExceeded {
		t.Fatalf("quiesce on stuck dataset: %v, want DeadlineExceeded", err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := reg.Quiesce(context.Background(), "stuck")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	reg.Delete("stuck")
	select {
	case err := <-errc:
		if err != ErrNotFound {
			t.Fatalf("quiesce on deleted dataset: %v, want ErrNotFound", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delete did not unblock quiesce")
	}
}
