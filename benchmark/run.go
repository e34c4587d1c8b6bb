package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// runConfig is what the command line decides for one workload run.
type runConfig struct {
	outDir    string // benchmark/out: logs, traces, results, temp data
	daemonBin string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
}

// measured is one metric of a report: the value reduce chose from the
// run's N samples, and the samples themselves when they are few enough
// to keep in a result file.
type measured struct {
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// keepSamples is the most samples a result file lists per metric; a
// run pools thousands of append and poll latencies.
const keepSamples = 256

// report is the outcome of one workload run.
type report struct {
	Workload  string              `json:"workload"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Laps      int                 `json:"laps"`
	Metrics   map[string]measured `json:"metrics"`
	Failures  []string            `json:"failures,omitempty"`
	WallS     float64             `json:"wallSeconds"`
}

// run is the state of one workload run: inputs, the current lap's child
// daemon, and the tallies every phase adds to.
type run struct {
	cfg     runConfig
	w       workload
	nproc   int
	tr      *tracer
	in      *inputs
	d       *daemon
	tmpRoot string
	dataDir string
	logPath string
	client  *http.Client
	nextOp  atomic.Int64

	attempted, failed int
	failures          []string
	// samples pools what every lap measured, one value per timed call
	// or operation; served is the digest of what each dataset finally
	// served, which every lap must reproduce.
	samples      map[string][]float64
	served       []string
	batch        batchOutcome
	batchDigests map[string]string
}

const (
	// workloadTimeout is the hard ceiling on one workload: a hung
	// daemon fails the run instead of stalling it.
	workloadTimeout = 170 * time.Second
	// minLaps run even when -seconds is already spent.
	minLaps = 3
	// setupRepeats is how many laps set up from scratch, inputs
	// included; setup_s is their median. Later laps reuse the inputs
	// (the same seed would only make the same ones again).
	setupRepeats = 3
	// tracedLapShare is the part of -seconds a traced run spends on
	// laps; the layer replay takes the rest.
	tracedLapShare = 0.5
)

// runWorkload runs laps of the workload's life cycle until the
// measuring time is up, checks the served outputs against an in-process
// reference, and reduces the laps to one value per metric.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (rep *report, err error) {
	ctx, cancel := context.WithTimeout(ctx, workloadTimeout)
	defer cancel()
	start := time.Now()
	r := &run{
		cfg: cfg, w: w, nproc: runtime.GOMAXPROCS(0),
		logPath: filepath.Join(cfg.outDir, "daemon-"+w.name+".log"),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		samples: make(map[string][]float64), batchDigests: make(map[string]string),
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	_ = os.Remove(r.logPath)
	defer func() {
		r.teardown()
		if err != nil {
			err = fmt.Errorf("%s: %w\n--- daemon log (%s) ---\n%s", w.name, err, r.logPath, tail(r.logPath, 30))
		}
	}()

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure = time.Duration(tracedLapShare * float64(measure))
	}
	// Laps run while another one like the last still fits, so a run of
	// long laps does not overshoot -seconds by most of a lap.
	laps := 0
	for last := time.Duration(0); laps < minLaps || time.Since(start)+last <= measure; laps++ {
		t := time.Now()
		if err := r.lap(ctx, laps); err != nil {
			return nil, fmt.Errorf("lap %d: %w", laps+1, err)
		}
		last = time.Since(t)
	}
	r.checkReference()
	if cfg.trace {
		if err := r.layerReplay(ctx, r.reduce()); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return &report{
		Workload: w.name, Correct: len(r.failures) == 0,
		Attempted: r.attempted, Failed: r.failed, Laps: laps,
		Metrics: r.reduce(), Failures: r.failures,
		WallS: time.Since(start).Seconds(),
	}, nil
}

// lap is one complete life cycle on a fresh daemon and data directory.
func (r *run) lap(ctx context.Context, n int) error {
	defer r.teardown()
	t := time.Now()
	if err := r.setUp(ctx, n < setupRepeats); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if n < setupRepeats {
		r.add("setup_s", time.Since(t).Seconds())
	}
	if err := r.batchCycle(); err != nil {
		return fmt.Errorf("batch cycle: %w", err)
	}
	if err := r.serveCycle(ctx); err != nil {
		return fmt.Errorf("serve cycle: %w", err)
	}
	if r.cfg.trace && n == 0 {
		return r.gatewayProbe(ctx, r.in.serve[0].name)
	}
	return nil
}

// percentileOf names the metrics that report something other than the
// median of their samples.
//
// A latency metric pools every operation of the run — each bulk append,
// refresh op or poll of every lap — and reports the percentile in its
// name, so a stall or a slow lap weighs what its operations weigh.
//
// The end-to-end metrics whose sample is one timed call (or one bulk
// load's rate) report the decile on their better side. The machine this
// runs on is never steady: for minutes it alternates, seconds at a
// time, between a quiet state and one 20-60% slower (a neighbour on the
// host; see README, "How a run's samples become one value"). Such a
// call is only ever disturbed upward, and a median over ten or twenty
// of them reports which state the neighbour was in.
var percentileOf = map[string]float64{
	"refresh_p80_ms":           80,
	"server.append_p99_ms":     99,
	"server.append_max_ms":     100,
	"http.read_p99_ms":         99,
	"loadgen.read_late_ms_p99": 99,

	"load_s":               10,
	"detect_hybrid_s":      10,
	"detect_incremental_s": 10,
	"detect_seq_s":         10,
	"restart_s":            10,
	"ingest_obs_per_s":     90,
}

// reduce turns the run's samples into one value per metric.
func (r *run) reduce() map[string]measured {
	out := make(map[string]measured, len(r.samples))
	for name, samples := range r.samples {
		p, ok := percentileOf[name]
		if !ok {
			p = 50
		}
		m := measured{Value: percentile(samples, p), N: len(samples)}
		if len(samples) <= keepSamples {
			m.Samples = samples
		}
		out[name] = m
	}
	return out
}

// setUp starts a daemon on a fresh data directory with the serve
// datasets created (and empty); with inputs set it first makes the
// run's inputs from the seed.
func (r *run) setUp(ctx context.Context, inputs bool) error {
	var err error
	if inputs {
		if r.in, err = makeInputs(r.w, r.cfg.seed, r.cfg.smoke); err != nil {
			return err
		}
	}
	if r.tmpRoot, err = os.MkdirTemp(r.cfg.outDir, "tmp-"); err != nil {
		return err
	}
	r.dataDir = filepath.Join(r.tmpRoot, "data")
	if err := os.Mkdir(r.dataDir, 0o755); err != nil {
		return err
	}
	if r.d, err = startDaemon(ctx, r.cfg.daemonBin, r.dataDir, r.logPath); err != nil {
		return err
	}
	for _, st := range r.in.serve {
		if _, err := r.call(ctx, http.MethodPut, "/v1/datasets/"+st.name, nil, http.StatusCreated); err != nil {
			return err
		}
	}
	return nil
}

// teardown stops the daemon and removes everything set-up put on disk.
func (r *run) teardown() {
	if r.d != nil {
		r.d.kill()
		r.d = nil
	}
	if r.tmpRoot != "" {
		_ = os.RemoveAll(r.tmpRoot)
		r.tmpRoot = ""
	}
}

// add records samples of a metric.
func (r *run) add(name string, v ...float64) {
	r.samples[name] = append(r.samples[name], v...)
}

// op counts one attempted operation; a non-nil err makes it a failed
// one and is kept for the report.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("%v", err)
	}
}

// fail records a failed output check: the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// response is one HTTP exchange as the load generator saw it.
type response struct {
	status int
	body   []byte
	etag   string
	took   time.Duration
}

// send performs one request against the daemon (or any base URL) and
// reads the whole response; took covers request to last body byte.
func (r *run) send(ctx context.Context, method, url string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return response{}, err
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, body: data, etag: resp.Header.Get("ETag"), took: time.Since(start)}, nil
}

// call is send against the daemon with the status checked.
func (r *run) call(ctx context.Context, method, path string, body []byte, want int) (response, error) {
	resp, err := r.send(ctx, method, r.d.base+path, body)
	if err != nil {
		return resp, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.status != want {
		return resp, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.status, want, bytes.TrimSpace(resp.body))
	}
	return resp, nil
}
