// Command benchmark is the repository's benchmark of record: four
// workloads, each a full life cycle of the system (library load and
// detection, then a real copydetectd child: bulk ingest, restart,
// small-append refresh beside reads), every end-to-end metric reported
// for every workload, outputs checked, and with -trace 1 a layer replay
// that decomposes the numbers. See README.md.
//
//	benchmark/run.sh -seed 1                      all workloads, end-to-end metrics
//	benchmark/run.sh -seed 1 -trace 1             all workloads, per-layer metrics
//	benchmark/run.sh -workload stream-ingest -seed 3 -seconds 10 -trace 0
//	benchmark/run.sh -smoke                       tiny inputs, checks on
//	benchmark/run.sh -compare old.json new.json   compare two result files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run this workload only and end with the one-line JSON result (default: all workloads, as a table)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 0, "measuring time per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: layer replay, per-layer metrics, span files in benchmark/out")
	smoke := fs.Bool("smoke", false, "tiny inputs and a short run: exercises every path and check, numbers mean nothing")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	man, err := readManifest(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, man, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}
	cfg := runConfig{
		outDir: filepath.Join(root, "benchmark", "out"),
		seed:   *seed, seconds: *secs, trace: *trace != 0, smoke: *smoke,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(man.RunSeconds)
	}
	if cfg.smoke {
		cfg.seconds = 0.5
	}
	if err := os.MkdirAll(filepath.Join(cfg.outDir, "bin"), 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var buildTime time.Duration
	if cfg.daemonBin, buildTime, err = buildDaemon(root, filepath.Join(cfg.outDir, "bin")); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stderr, "build_s %.3f (go build ./cmd/copydetectd; outside the metric set)\n", buildTime.Seconds())

	// An interrupt cancels the run; runWorkload's deferred teardown then
	// kills the child and removes its data directory before we exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res := results{Stamp: stampFor(root, cfg), Workloads: make(map[string]*report)}
	defs := man.EndToEnd
	if cfg.trace {
		defs = man.PerLayer
	}
	human := stdout
	if *workloadName != "" {
		human = stderr
	}
	ok := true
	for _, w := range selected {
		rep, err := runWorkload(ctx, cfg, w)
		if err == nil {
			err = rep.restrictTo(defs)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res.Workloads[w.name] = rep
		printReport(human, rep, defs)
		ok = ok && rep.Correct && rep.Failed == 0
	}
	name := "all"
	if *workloadName != "" {
		name = *workloadName
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, cfg.seed, *trace))
	if err := res.write(path); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(human, "stamp: %s\nresults written to %s\n", res.Stamp, path)
	if *workloadName != "" {
		if err := json.NewEncoder(stdout).Encode(res.Workloads[*workloadName].driverLine(defs)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED: an operation or an output check failed (see above)")
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json and the benchmark directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json above the working directory; run from inside the checkout")
		}
		dir = parent
	}
}
