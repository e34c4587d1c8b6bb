// Crash-recovery acceptance test (ISSUE 3): SIGKILL the daemon at
// randomized points while a workload streams in, restart it on the same
// data directory, re-send whatever was never acknowledged, quiesce —
// and the published result must be byte-identical (timers and
// version/round metadata aside) to an uninterrupted run over the same
// appends. The daemon is a real process: the test re-execs its own
// binary, which TestMain turns into copydetectd when the child marker
// variable is set.
package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/server"
	"copydetect/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, run) }

// startDaemon launches the test binary as a copydetectd process over
// dataDir and waits until it serves.
func startDaemon(t *testing.T, dataDir string, workers int) *testkit.Proc {
	return testkit.Start(t, "copydetectd", os.Args[0], "127.0.0.1:0", "-data-dir", dataDir, "-workers", fmt.Sprint(workers))
}

// volatile is the run-dependent metadata of the published views —
// versions, round numbers, timers — that an interrupted run may not
// reproduce; everything else must be byte-identical.
var volatile = []string{"version", "servedVersion", "round", "detectMillis", "fusionMillis", "wallMillis"}

// TestCrashRecoveryEquivalence is the acceptance criterion: for workers
// 1 and 4, SIGKILL the daemon at randomized points during streamed
// appends (including mid-round), restart + re-send unacknowledged
// batches + quiesce, and compare the full published state against an
// uninterrupted in-process run of the same append sequence.
func TestCrashRecoveryEquivalence(t *testing.T) {
	ds := testkit.Generate(t, testkit.Lookup("book-cs")[0])
	truth := dataset.TruthRecords(ds)
	batches := testkit.Batches(dataset.Records(ds), 8)

	seed := time.Now().UnixNano()
	t.Logf("randomized kill points use seed %d", seed)

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(workers)))
			httpClient := &http.Client{Timeout: 90 * time.Second}

			// Reference: the uninterrupted run, same wire protocol,
			// against an in-process registry.
			reg := server.NewRegistry(server.Config{Options: core.Options{Workers: workers}})
			defer reg.Close()
			ref := httptest.NewServer(server.NewHandler(reg))
			defer ref.Close()
			rc := &testkit.Client{T: t, HTTP: httpClient, Base: ref.URL, Name: "stream"}
			rc.Must(http.MethodPut, "", nil, http.StatusCreated)
			for _, b := range batches {
				rc.Must(http.MethodPost, "/observations", testkit.Append{Observations: b}, http.StatusAccepted)
			}
			rc.Must(http.MethodPost, "/observations", testkit.Append{Truth: truth}, http.StatusAccepted)
			rc.Must(http.MethodPost, "/quiesce", nil, http.StatusOK)
			want := rc.Published(volatile...)

			// Interrupted run: a real daemon process, SIGKILLed at two
			// randomized batch positions (with a random extra delay so the
			// kill can land mid-detection-round), restarted on the same
			// data directory each time.
			dataDir := t.TempDir()
			d := startDaemon(t, dataDir, workers)
			cc := &testkit.Client{T: t, HTTP: httpClient, Base: d.Base, Name: "stream"}
			cc.Must(http.MethodPut, "", nil, http.StatusCreated)
			cc.Must(http.MethodPost, "/observations", testkit.Append{Observations: batches[0]}, http.StatusAccepted)

			perm := rng.Perm(len(batches) - 1)
			killAt := []int{1 + min(perm[0], perm[1]), 1 + max(perm[0], perm[1])}
			t.Logf("killing after batches %v", killAt)
			unsent := append([][]dataset.Record(nil), batches[1:]...)
			for i := 0; i < len(unsent); i++ {
				status, _, _, err := testkit.Do(httpClient, http.MethodPost, cc.URL("/observations"), testkit.Append{Observations: unsent[i]}, nil)
				acked := err == nil && status/100 == 2
				if !slices.Contains(killAt, i+1) {
					if !acked {
						t.Fatalf("append of batch %d failed without a crash", i+1)
					}
					continue
				}
				// Let the scheduler pick the batch up, then SIGKILL —
				// sometimes mid-round, sometimes between rounds.
				time.Sleep(time.Duration(rng.Intn(6)) * time.Millisecond)
				d.Kill()
				d = startDaemon(t, dataDir, workers)
				cc.Base = d.Base
				if !acked {
					// Never acknowledged: the daemon may or may not have
					// logged it; re-sending is safe because appends are
					// idempotent on dataset content.
					i--
				}
			}
			cc.Must(http.MethodPost, "/observations", testkit.Append{Truth: truth}, http.StatusAccepted)
			cc.Must(http.MethodPost, "/quiesce", nil, http.StatusOK)
			got := cc.Published(volatile...)

			if d := testkit.Diff(got, want); d != "" {
				t.Fatalf("recovered run diverges from uninterrupted run: %s", d)
			}
			if algo, _ := got["/copies"]["algorithm"].(string); algo != "INCREMENTAL" {
				t.Fatalf("final recovered round ran %q, want INCREMENTAL", algo)
			}
			if pairs, _ := got["/copies"]["pairs"].([]any); len(pairs) == 0 {
				t.Fatal("workload detected no copying pairs; enlarge the preset")
			}
		})
	}
}
