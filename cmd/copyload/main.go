// Command copyload is the workload generator for copydetectd and
// copygate: it streams synthetic datasets (internal/gen, the same
// presets as datagen) into a daemon or a cluster gateway, drives them
// to convergence, scores the detected copying against the generator's
// planted copier cliques and reports throughput and latency
// percentiles. Every run is a scenario executed by internal/scenario;
// the flags describe the simplest one and -scenario names a file with
// anything richer.
//
// Usage:
//
//	copyload -target http://localhost:8378
//	         [-datasets 4] [-clients 4] [-dataset book-cs] [-scale 0.05]
//	         [-seed 1] [-batch 500] [-rate 0] [-json]
//	copyload -target http://localhost:8378 -scenario file.json
//	         [-slo file.json] [-verdict out.json] [-scrape URLs] [-pids PIDs]
//
// Without -scenario the run is one phase that lasts until the data is
// exhausted: -datasets synthetic datasets, split into batches of -batch
// observations, each owned by exactly one of -clients clients (append
// order within a dataset must stay sequential), which interleaves its
// datasets by a seeded uniform pick so the server sees the mixed stream
// a real deployment would. -rate caps the global append rate in batches
// per second (0 = as fast as the target absorbs). The run ends by
// driving every dataset to convergence, timed apart from the load
// phase.
//
// A 429 from the target is backpressure, not failure: the batch is
// retried after the advertised Retry-After and tallied separately as
// "throttled", so a run against an admission-controlled daemon or
// gateway reports the pace the service chose rather than a wall of
// errors. A 5xx or transport failure is retried a bounded number of
// times before the dataset's stream is abandoned and the run fails.
//
// A -scenario file declares named phases with their own rates, client
// mixes and bursts, zipfian dataset popularity, source churn, failure
// injection against the -pids backends, and an SLO block — p99 append
// latency, zero 5xx during kill phases, convergence lag, and detection
// precision/recall — asserted on top; see examples/scenarios/. /metrics
// of the -scrape targets is scraped at phase boundaries either way.
//
// The outcome is a scenario.Verdict: a one-screen text summary by
// default, JSON with -json, -scenario or -verdict (which names a file
// to write it to instead of stdout). Exit status 1 means the verdict
// failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"copydetect/internal/gen"
	"copydetect/internal/scenario"
)

// options carries the parsed command line; split out for testability.
type options struct {
	target   string
	datasets int
	clients  int
	preset   string
	scale    float64
	seed     int64
	batch    int
	rate     float64 // appends/second across all clients; 0 = unlimited
	jsonOut  bool
	prefix   string

	// scenario names a file that replaces the flag-described workload.
	scenario string
	slo      string
	verdict  string
	scrape   string
	pids     string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("copyload", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a copydetectd or copygate instance (required)")
	datasets := fs.Int("datasets", 4, "number of synthetic datasets to stream")
	clients := fs.Int("clients", 4, "concurrent client connections (each dataset belongs to one client)")
	preset := fs.String("dataset", "book-cs", "workload preset: "+strings.Join(gen.PresetNames, ", "))
	scale := fs.Float64("scale", 0.05, "preset scale factor (1 = paper sizes)")
	seed := fs.Int64("seed", 1, "base RNG seed (dataset i uses seed+i)")
	batch := fs.Int("batch", 500, "observations per append batch")
	rate := fs.Float64("rate", 0, "target append batches/second across all clients (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "print the verdict as JSON instead of the text summary")
	prefix := fs.String("prefix", "load", "dataset name prefix (dataset i is named <prefix>-<i>)")
	scenarioPath := fs.String("scenario", "", "declarative scenario file (JSON); replaces the workload the flags describe")
	sloPath := fs.String("slo", "", "SLO file (JSON) overriding the scenario's embedded slo block")
	verdict := fs.String("verdict", "", "write the verdict JSON to this file instead of stdout")
	scrapeTargets := fs.String("scrape", "", "comma-separated /metrics base URLs scraped at phase boundaries (default: the target)")
	pids := fs.String("pids", "", "comma-separated backend PIDs addressed by inject steps (backend 0 = first)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	opt := options{
		target: *target, datasets: *datasets, clients: *clients,
		preset: *preset, scale: *scale, seed: *seed, batch: *batch,
		rate: *rate, jsonOut: *jsonOut, prefix: *prefix,
		scenario: *scenarioPath, slo: *sloPath, verdict: *verdict,
		scrape: *scrapeTargets, pids: *pids,
	}
	if opt.target == "" {
		return options{}, fmt.Errorf("copyload: -target is required")
	}
	if opt.scenario != "" {
		// The file describes the workload; the workload flags below
		// don't apply and aren't validated.
		return opt, nil
	}
	if opt.datasets < 1 || opt.clients < 1 || opt.batch < 1 {
		return options{}, fmt.Errorf("copyload: -datasets, -clients and -batch must be at least 1")
	}
	if opt.rate < 0 || opt.rate > 1e6 {
		// The upper bound keeps the pacer interval positive and is far
		// past any real target.
		return options{}, fmt.Errorf("copyload: -rate must be between 0 and 1e6")
	}
	if opt.prefix == "" {
		return options{}, fmt.Errorf("copyload: -prefix must be non-empty")
	}
	if _, err := gen.Preset(opt.preset, 0); err != nil {
		return options{}, fmt.Errorf("copyload: -dataset: %w", err)
	}
	return opt, nil
}

// flagSpec is the scenario the workload flags describe: one group of
// datasets and one phase that runs until they are exhausted.
func flagSpec(opt options) *scenario.Spec {
	return &scenario.Spec{
		Name: fmt.Sprintf("%s ×%g", opt.preset, opt.scale),
		Datasets: []scenario.DatasetGroup{{
			Count: opt.datasets, Preset: opt.preset, Scale: opt.scale,
			Seed: opt.seed, Prefix: opt.prefix,
		}},
		Batch:  opt.batch,
		Phases: []scenario.Phase{{Name: "load", Rate: opt.rate, Clients: opt.clients}},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "copyload: %v\n", err)
		return code
	}
	opt, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	spec := flagSpec(opt)
	if opt.scenario != "" {
		if spec, err = scenario.Load(opt.scenario); err != nil {
			return fail(2, err)
		}
	}
	var slo *scenario.SLO // nil = the spec's embedded block
	if opt.slo != "" {
		if slo, err = scenario.LoadSLO(opt.slo); err != nil {
			return fail(2, err)
		}
	}
	pids, err := parsePIDs(opt.pids)
	if err != nil {
		return fail(2, err)
	}
	r := &scenario.Runner{
		Target:        opt.target,
		Client:        &http.Client{Timeout: 60 * time.Second},
		Injector:      &pidInjector{pids: pids},
		ScrapeTargets: splitTargets(opt.scrape, opt.target),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "copyload: "+format+"\n", args...)
		},
	}
	v, err := r.Run(context.Background(), spec, slo)
	if err != nil {
		return fail(1, err)
	}

	switch {
	case opt.verdict != "":
		f, err := os.Create(opt.verdict)
		if err != nil {
			return fail(1, err)
		}
		err = writeJSON(f, v)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(1, fmt.Errorf("write %s: %w", opt.verdict, err))
		}
	case opt.jsonOut || opt.scenario != "":
		if err := writeJSON(stdout, v); err != nil {
			return fail(1, err)
		}
	default:
		printVerdict(stdout, v)
	}
	if !v.Pass {
		fmt.Fprintf(stderr, "copyload: %q FAILED: errors during the run or an SLO check\n", v.Scenario)
		return 1
	}
	return 0
}

func writeJSON(w io.Writer, v *scenario.Verdict) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printVerdict renders the one-screen text summary of a verdict.
func printVerdict(w io.Writer, v *scenario.Verdict) {
	fmt.Fprintf(w, "copyload: %s → %s\n", v.Scenario, v.Target)
	fmt.Fprintf(w, "  %d datasets, %d observations generated\n", v.Datasets, v.Observations)
	for _, p := range v.Phases {
		fmt.Fprintf(w, "  %s: %d appends (%d observations) in %.2fs — %.1f appends/s",
			p.Name, p.Appends, p.Observations, p.Seconds, p.AchievedRate)
		if p.TargetRate > 0 {
			fmt.Fprintf(w, " (target %.1f)", p.TargetRate)
		}
		fmt.Fprintf(w, ", %d 5xx, %d other errors, %d throttled\n", p.Errors5xx, p.OtherErrors, p.Throttled)
		if l := p.Latency; l != nil {
			fmt.Fprintf(w, "    append latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f  mean %.2f\n",
				l.P50Millis, l.P90Millis, l.P99Millis, l.MaxMillis, l.MeanMillis)
		} else {
			fmt.Fprintln(w, "    append latency: no successful appends")
		}
	}
	fmt.Fprintf(w, "  quiesce to convergence: %.2fs, %d errors\n", v.QuiesceSeconds, v.QuiesceErrors)
	if q := v.Quality; q != nil {
		fmt.Fprintf(w, "  detection vs planted copiers: precision %.2f, recall %.2f (%d pairs detected, %d planted)\n",
			q.Precision, q.Recall, q.DetectedPairs, q.PlantedPairs)
	}
	for _, c := range v.Checks {
		if !c.Pass {
			fmt.Fprintf(w, "  FAILED %s %s: %g against a limit of %g %s\n", c.Name, c.Phase, c.Actual, c.Limit, c.Detail)
		}
	}
	if v.Pass {
		fmt.Fprintln(w, "  PASS")
	} else {
		fmt.Fprintln(w, "  FAIL")
	}
}
