// Command copygate is the cluster front end for copydetectd: a
// consistent-hash gateway that owns the dataset namespace across N
// backend daemons. Every dataset-scoped request (create, append, read,
// quiesce, delete) is routed to the dataset's replica set on the hash
// ring and proxied byte-for-byte — ETags included, so clients written
// against a single daemon work unchanged. The dataset list fans out to
// every backend and merges; /healthz reports the gateway's view of
// backend health.
//
// Usage:
//
//	copygate -backends http://h1:8377,http://h2:8377,http://h3:8377
//	         [-addr :8378] [-addr-file FILE] [-replicas 2]
//	         [-probe-every 1s]
//
// With -replicas R (default 2) every dataset lives on the first R
// distinct backends walking the ring from its name: writes are
// acknowledged by the acting primary and mirrored to the other members
// with sequence numbers (so duplicated deliveries land exactly once),
// reads fail over transparently — marked X-Copydetect-Replica — and a
// recovered backend is caught back up by anti-entropy before serving
// again. Killing any single backend therefore loses no dataset. With
// -replicas 1 each dataset lives on its ring owner alone, on the same
// write path: a dead or hung backend's datasets answer 503 until it
// returns; lists are partial.
//
// Backends are probed every -probe-every, each probe allowed half that
// period, at most 2 s; a backend that fails twice in a row is ejected
// and readmitted after two consecutive successful probes. Reads are
// retried up to twice on transport failures, and every member of the
// replica set is tried at least once. The -backends list and its order
// are the routing table: every gateway over one cluster must use the
// same list. See internal/cluster for the design.
//
// The gateway serves Prometheus-format metrics on GET /metrics: request
// rate/latency/in-flight by route, per-backend health and replication
// lag, mirror-queue depth in jobs and bytes, ring ownership, and the
// retry/failover/admission counters. Every request is tagged with an
// X-Copydetect-Trace ID — generated here if the client did not send one
// — that is propagated to the backends and onto asynchronous mirror
// deliveries, so one client write can be followed through every access
// log it touches. While a dataset's mirror queue holds 192 or more jobs
// (a replica is down or slow), appends to it are refused with 429 +
// Retry-After instead of queueing without bound.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"copydetect/internal/cluster"
	"copydetect/internal/telemetry"
)

// options carries the parsed command line; split out for testability.
type options struct {
	addr     string
	addrFile string
	cfg      cluster.Config
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("copygate", flag.ContinueOnError)
	addr := fs.String("addr", ":8378", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts and tests)")
	backends := fs.String("backends", "", "comma-separated copydetectd base URLs (required; order is the routing table)")
	probeEvery := fs.Duration("probe-every", time.Second, "health-check period per backend")
	replicas := fs.Int("replicas", 2, "backends holding each dataset (1 = no replication; clamped to the backend count)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		return options{}, fmt.Errorf("copygate: -backends is required (comma-separated base URLs)")
	}
	for _, u := range urls {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return options{}, fmt.Errorf("copygate: backend %q must be an http(s) base URL", u)
		}
	}
	if *probeEvery <= 0 {
		return options{}, fmt.Errorf("copygate: -probe-every must be positive")
	}
	if *replicas < 1 {
		return options{}, fmt.Errorf("copygate: -replicas must be at least 1")
	}
	opt := options{addr: *addr, addrFile: *addrFile}
	opt.cfg.Backends = urls
	opt.cfg.ProbeEvery = *probeEvery
	opt.cfg.Replication = *replicas
	return opt, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole gateway: parse, build the ring, serve, shut down.
// It returns the process exit code (split from main so the cluster
// equivalence test can re-exec the test binary as a real gateway
// process).
func run(args []string) int {
	opt, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "copygate: %v\n", err)
		return 2
	}
	gw, err := cluster.New(opt.cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "copygate: %v\n", err)
		return 1
	}
	treg := telemetry.New()
	gw.RegisterMetrics(treg)
	log.Printf("copygate: routing %d backends (replicas %d, probe every %v)",
		len(opt.cfg.Backends), opt.cfg.Replication, opt.cfg.ProbeEvery)
	for i, b := range opt.cfg.Backends {
		log.Printf("copygate: backend %d: %s", i, b)
	}
	return telemetry.Serve("copygate", opt.addr, opt.addrFile, treg, gw, gw.Close)
}
