// Command copydetectd is a streaming copy-detection service: an
// HTTP/JSON daemon holding a registry of named datasets. Clients append
// observation batches as they arrive; a dirty-dataset scheduler runs
// detection rounds asynchronously — each one the whole iterative process
// with INCREMENTAL on a snapshot of the appends so far — and reads serve
// the last published round without ever blocking on detection.
//
// Usage:
//
//	copydetectd [-addr :8377] [-workers 0]
//	            [-data-dir DIR] [-fsync]
//	            [-append-high-water 0]
//
// The scheduler runs one detection round at a time, taking dirty
// datasets in turn. -workers 0 (the default) shards every round over one
// goroutine per CPU. The worker count belongs to the process: a dataset
// does not keep it, so a restart or an imported dataset runs with this
// process's value.
// A dataset's priors α, s and n are its own, named in the body of the
// PUT that creates it; a field the body omits is the paper's default
// (0.1, 0.8, 100) on every daemon.
//
// The daemon serves Prometheus-format metrics on GET /metrics: request
// rate/latency/in-flight by route, per-dataset convergence lag,
// scheduler queue depth, round durations and WAL append/fsync latency.
// Every request is tagged with an X-Copydetect-Trace ID (generated if
// the client — usually cmd/copygate — did not send one) that appears in
// the access log and the response. With -append-high-water N the daemon
// refuses direct client appends with 429 + Retry-After while a dataset
// has N or more appends awaiting convergence, bounding the backlog a
// fast writer can pile onto the scheduler; replicated (sequenced)
// appends are exempt, since the gateway already admitted them.
//
// With -data-dir the daemon is durable: every dataset keeps a
// write-ahead log under the directory, appends are acknowledged only
// once logged (fsync'd unless -fsync=false), every published round is
// snapshotted in the background and the log prefix it covers trimmed,
// and a restart — graceful or SIGKILL — recovers every dataset, replays
// the log tail and re-converges, publishing the same results an
// uninterrupted process would have. See the package comments of
// internal/server and internal/wal for the wire protocol, the on-disk
// format and the crash-recovery guarantee.
//
// The daemon also speaks the replication vocabulary cmd/copygate's
// cluster mode drives: appends may carry an X-Copydetect-Seq sequence
// number (replayed deliveries are acknowledged without re-applying;
// gaps are refused with 409), GET /v1/datasets/{name}/export serializes
// a dataset's full appended state plus its round counter in the
// bit-exact binary codec, and POST /v1/datasets/{name}/import installs
// such a blob if it is newer than the local state — the anti-entropy
// pair a recovered replica catches up with. All of it works against a
// single daemon too; no cluster required.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"copydetect/internal/pool"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
)

// options carries the parsed command line; split out for testability.
type options struct {
	addr     string
	addrFile string
	cfg      server.Config
}

// parseFlags parses args (without the program name) into options,
// applying the per-CPU worker default.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("copydetectd", flag.ContinueOnError)
	addr := fs.String("addr", ":8377", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts and tests)")
	workers := fs.Int("workers", 0, "detection worker goroutines per round (0 = one per CPU, 1 = sequential)")
	dataDir := fs.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	fsync := fs.Bool("fsync", true, "fsync the write-ahead log before acknowledging appends (with -data-dir)")
	appendHW := fs.Int("append-high-water", 0, "refuse client appends with 429 while a dataset has this many appends awaiting convergence (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *appendHW < 0 {
		return options{}, fmt.Errorf("copydetectd: -append-high-water %d must be >= 0 (0 = unbounded)", *appendHW)
	}
	w := *workers
	if w <= 0 {
		w = pool.Auto()
	}
	opt := options{addr: *addr, addrFile: *addrFile}
	opt.cfg.Options.Workers = w
	opt.cfg.DataDir = *dataDir
	opt.cfg.Fsync = *fsync
	opt.cfg.AppendHighWater = *appendHW
	return opt, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole daemon: parse, recover, serve, shut down. It returns
// the process exit code (split from main so the crash-recovery test can
// re-exec the test binary as a real daemon process).
func run(args []string) int {
	opt, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "copydetectd: %v\n", err)
		return 2
	}

	reg, err := server.Open(opt.cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "copydetectd: %v\n", err)
		return 1
	}
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	durability := "in-memory"
	if opt.cfg.DataDir != "" {
		durability = fmt.Sprintf("data-dir=%s fsync=%t", opt.cfg.DataDir, opt.cfg.Fsync)
	}
	log.Printf("copydetectd: workers=%d, %s", opt.cfg.Options.Workers, durability)
	return telemetry.Serve("copydetectd", opt.addr, opt.addrFile, treg, server.NewHandler(reg), reg.Close)
}
