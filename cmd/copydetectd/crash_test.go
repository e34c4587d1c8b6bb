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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/gen"
	"copydetect/internal/server"
)

const childEnv = "COPYDETECTD_CHILD_ARGS"

func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			fmt.Fprintf(os.Stderr, "bad %s: %v\n", childEnv, err)
			os.Exit(2)
		}
		os.Exit(run(args))
	}
	os.Exit(m.Run())
}

// daemon is one copydetectd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	output *bytes.Buffer
	exited chan struct{} // closed once Wait returns
}

// startDaemon launches the test binary as a copydetectd process over
// dataDir and waits until it serves.
func startDaemon(t *testing.T, dataDir string, workers int) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	args := []string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data-dir", dataDir,
		"-workers", fmt.Sprint(workers),
	}
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: exec.Command(os.Args[0]), output: &bytes.Buffer{}}
	d.cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	d.cmd.Stdout = d.output
	d.cmd.Stderr = d.output
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	d.exited = make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() { d.kill() })

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil && strings.Contains(string(raw), ":") {
			d.base = "http://" + strings.TrimSpace(string(raw))
			return d
		}
		select {
		case <-d.exited: // died at startup: fail now, with its output
			t.Fatalf("daemon exited during startup; output:\n%s", d.output.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.kill() // reaps the process, so reading its output below is race-free
	t.Fatalf("daemon never came up; output:\n%s", d.output.String())
	return nil
}

// kill SIGKILLs the daemon — no grace, no flushing — and reaps it.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// httpDo runs one JSON request; ok reports a 2xx response.
func httpDo(client *http.Client, method, url string, body any) (ok bool, out map[string]any, err error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return false, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return false, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, nil, err
	}
	out = map[string]any{}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			return false, nil, fmt.Errorf("bad response body %q: %w", raw, err)
		}
	}
	return resp.StatusCode >= 200 && resp.StatusCode < 300, out, nil
}

type appendBody struct {
	Observations []dataset.Record `json:"observations,omitempty"`
	Truth        []dataset.Record `json:"truth,omitempty"`
}

// client wraps the copydetectd wire protocol for one dataset.
type client struct {
	t    *testing.T
	http *http.Client
	base string
	name string
}

func (c *client) url(suffix string) string {
	return c.base + "/v1/datasets/" + c.name + suffix
}

func (c *client) create() {
	c.t.Helper()
	ok, out, err := httpDo(c.http, http.MethodPut, c.url(""), nil)
	if err != nil || !ok {
		c.t.Fatalf("create: ok=%v out=%v err=%v", ok, out, err)
	}
}

// tryAppend sends one batch and reports whether it was acknowledged.
func (c *client) tryAppend(obs, truth []dataset.Record) bool {
	ok, _, err := httpDo(c.http, http.MethodPost, c.url("/observations"), appendBody{Observations: obs, Truth: truth})
	return err == nil && ok
}

func (c *client) mustAppend(obs, truth []dataset.Record) {
	c.t.Helper()
	if !c.tryAppend(obs, truth) {
		c.t.Fatal("append failed against a healthy daemon")
	}
}

func (c *client) quiesce() {
	c.t.Helper()
	ok, out, err := httpDo(c.http, http.MethodPost, c.url("/quiesce"), nil)
	if err != nil || !ok {
		c.t.Fatalf("quiesce: ok=%v out=%v err=%v", ok, out, err)
	}
}

// published gathers the copies, truth and stats bodies with the
// run-dependent metadata (versions, round numbers, timers) removed —
// everything that remains must be byte-identical across an interrupted
// and an uninterrupted run.
func (c *client) published() map[string]map[string]any {
	c.t.Helper()
	views := map[string]map[string]any{}
	for _, ep := range []string{"/copies", "/truth", "/stats"} {
		ok, out, err := httpDo(c.http, http.MethodGet, c.url(ep), nil)
		if err != nil || !ok {
			c.t.Fatalf("GET %s: ok=%v out=%v err=%v", ep, ok, out, err)
		}
		for _, volatile := range []string{
			"version", "servedVersion", "round",
			"detectMillis", "fusionMillis", "wallMillis",
		} {
			delete(out, volatile)
		}
		if conv, _ := out["converged"].(bool); !conv {
			c.t.Fatalf("GET %s after quiesce not converged: %v", ep, out)
		}
		views[ep] = out
	}
	return views
}

// TestCrashRecoveryEquivalence is the acceptance criterion: for workers
// 1 and 4, SIGKILL the daemon at randomized points during streamed
// appends (including mid-round), restart + re-send unacknowledged
// batches + quiesce, and compare the full published state against an
// uninterrupted in-process run of the same append sequence.
func TestCrashRecoveryEquivalence(t *testing.T) {
	ds, _, err := gen.Generate(gen.Scale(gen.BookCS(11), 0.04))
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	recs := dataset.Records(ds)
	truth := dataset.TruthRecords(ds)
	const numBatches = 8
	per := (len(recs) + numBatches - 1) / numBatches
	var batches [][]dataset.Record
	for start := 0; start < len(recs); start += per {
		end := start + per
		if end > len(recs) {
			end = len(recs)
		}
		batches = append(batches, recs[start:end])
	}

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
			rc := &client{t: t, http: httpClient, base: ref.URL, name: "stream"}
			rc.create()
			for _, b := range batches {
				rc.mustAppend(b, nil)
			}
			rc.mustAppend(nil, truth)
			rc.quiesce()
			want := rc.published()

			// Interrupted run: a real daemon process, SIGKILLed at two
			// randomized batch positions (with a random extra delay so the
			// kill can land mid-detection-round), restarted on the same
			// data directory each time.
			dataDir := t.TempDir()
			d := startDaemon(t, dataDir, workers)
			cc := &client{t: t, http: httpClient, base: d.base, name: "stream"}
			cc.create()
			cc.mustAppend(batches[0], nil)

			killAt := map[int]bool{}
			for len(killAt) < 2 {
				killAt[1+rng.Intn(len(batches)-1)] = true
			}
			t.Logf("killing after batches %v", keys(killAt))
			unsent := append([][]dataset.Record(nil), batches[1:]...)
			for i := 0; i < len(unsent); i++ {
				acked := cc.tryAppend(unsent[i], nil)
				if !killAt[i+1] {
					if !acked {
						t.Fatalf("append of batch %d failed without a crash", i+1)
					}
					continue
				}
				// Let the scheduler pick the batch up, then SIGKILL —
				// sometimes mid-round, sometimes between rounds.
				time.Sleep(time.Duration(rng.Intn(6)) * time.Millisecond)
				d.kill()
				d = startDaemon(t, dataDir, workers)
				cc = &client{t: t, http: httpClient, base: d.base, name: "stream"}
				if !acked {
					// Never acknowledged: the daemon may or may not have
					// logged it; re-sending is safe because appends are
					// idempotent on dataset content.
					i--
				}
			}
			cc.mustAppend(nil, truth)
			cc.quiesce()
			got := cc.published()

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered run diverges from uninterrupted run:\n got  %v\n want %v", got, want)
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

func keys(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
