// Package copydetect is a scalable copy-detection library for structured
// data, implementing "Scaling up Copy Detection" (Xian Li, Xin Luna Dong,
// Kenneth B. Lyons, Weiyi Meng, Divesh Srivastava; ICDE 2015).
//
// # Problem
//
// Many Web sources provide values for the same data items (the closing
// price of a stock, the author list of a book). Values conflict, and data
// fusion must decide which value is true. Copying between sources breaks
// the "popular values are probably true" heuristic: a false value can
// spread through copiers and become the majority. Copy detection finds,
// for every pair of sources, whether one copies from the other, so fusion
// can discount copied votes — but the classic PAIRWISE detector examines
// every shared data item of every source pair in every iteration, which
// does not scale.
//
// # What this library provides
//
// The paper's full algorithm family, behind one Detector interface:
//
//   - Pairwise — the exhaustive baseline (Dong et al., VLDB 2009).
//   - Index — a score-ordered inverted index over shared values; pairs
//     sharing nothing (or only weak evidence) are pruned, with results
//     provably identical to Pairwise.
//   - Bound / BoundPlus — early termination from running upper/lower
//     score bounds, with lazily recomputed bounds in BoundPlus.
//   - Hybrid — Index for small-overlap pairs, BoundPlus for the rest.
//   - Incremental — refines the previous round's decisions instead of
//     re-detecting from scratch in the iterative process.
//
// plus the surrounding system: the ACCU truth finder with copier
// discounting (TruthFinder), coverage-aware sampling (ScaleSample),
// synthetic workload generators matching the paper's four datasets, a
// Fagin-NRA baseline, and a harness regenerating every table and figure
// of the paper's evaluation (cmd/experiments).
//
// # Parallelism
//
// Every detector in the family parallelizes over a goroutine pool via
// Options{Workers: N} (the paper's Section VIII extension): the scan of
// INDEX/BOUND/BOUND+/HYBRID is sharded across the pair space, and
// INCREMENTAL fans out its base-score computation, entry
// classification and pass 1–3 re-examination. Parallel detection is
// deterministic — results are bit-identical to the sequential run for
// every worker count, because pair ownership, accumulation order and
// merge order are all fixed functions of the data (see DESIGN.md).
// Workers is a shard count rather than a core count; the CLIs default to
// one worker per CPU. Use DetectWithOptions to pass it through the
// one-call API, which hands the same value to the TruthFinder: the
// truth-finding step between detection rounds splits by item block under
// the same bit-identical contract (TruthFinder.Workers).
//
// # Performance
//
// The detection kernel stores the index as struct-of-arrays columns with
// packed bitsets for pair overlap and pair state as one cache line per
// pair, accumulates scores as renormalized mantissa/exponent products
// instead of per-co-occurrence logarithms, and scans with one of two loop
// nests, chosen per scan by the data: entry by entry where pairs share few
// items, pair by pair over per-source position bitsets where they share
// many — the same bits either way. A steady-state INCREMENTAL round
// allocates its Result and nothing else.
// PERFORMANCE.md documents the methodology — benchmark suite,
// regression gate, pprof workflow — and the measured results;
// DESIGN.md's kernel section records the layout itself.
//
// # Serving
//
// For workloads where observations arrive continuously — the setting
// that motivates the paper's INCREMENTAL algorithm — cmd/copydetectd
// wraps the library in a long-running HTTP/JSON service backed by
// internal/server. It holds a registry of named datasets; clients
// append observation batches, a dirty-dataset scheduler runs detection
// rounds asynchronously, and reads serve the last published round with
// round/version ETags, never blocking on detection. Every round runs
// the complete iterative process from priors, with INCREMENTAL, on an
// immutable snapshot, so what is served for a version depends on that
// version alone and a quiesced dataset's result is byte-identical to a
// one-shot batch INCREMENTAL run over the same final data — the
// batch-equivalence guarantee documented in DESIGN.md. See
// examples/server for a streaming client.
//
// # Durability
//
// With -data-dir, copydetectd keeps every dataset on disk: appends are
// acknowledged only after they are written to a checksummed,
// segment-rotated write-ahead log (internal/wal; fsync'd unless
// -fsync=false), and a background compactor snapshots each published
// round — dataset and outcome in a binary, bit-exact codec — and trims
// the log behind it. A restarted daemon (graceful stop or SIGKILL)
// reloads the newest snapshot, replays the log tail, truncates any torn
// record off the end, and re-converges, extending the batch-equivalence
// guarantee across process death: the recovered, quiesced result is
// byte-identical (timers aside) to an uninterrupted run over the same
// acknowledged appends. The WAL format, snapshot cadence and recovery
// sequence are documented in DESIGN.md.
//
// # Cluster mode
//
// One daemon is bounded by one machine. cmd/copygate scales the service
// horizontally: a consistent-hash gateway (internal/cluster) that owns
// the dataset namespace over N copydetectd backends. Datasets are
// already independent convergence units, so sharding whole datasets by
// a pure hash of the name needs no cross-backend coordination; the
// gateway proxies every dataset-scoped request byte-for-byte (ETags
// included — single-daemon clients work unchanged), fans the dataset
// list out to all backends, and health-checks them with ejection and
// readmission. With -replicas 2 (the default) every dataset lives on
// two backends: writes are acknowledged by the acting primary and
// mirrored to the replica with idempotent sequence numbers, reads fail
// over transparently (marked X-Copydetect-Replica), and a recovered
// backend is caught back up by anti-entropy — an export/import state
// copy from its peer — before serving again, so the loss of any single
// backend surfaces no errors at all. cmd/copyload generates streaming
// load against a daemon or gateway and reports throughput and latency
// percentiles. The cluster's acceptance test proves wire-level
// equivalence between a three-backend gateway and a single direct
// daemon, through a mid-stream SIGKILL and readmission.
//
// Every copyload run is a scenario executed by internal/scenario; the
// flags describe a one-phase one, and -scenario runs a declarative
// workload from a file: JSON-specified phases with target
// rates, traffic bursts, zipfian dataset popularity, source churn and
// failure injections, judged against an SLO block — p99 append
// latency, zero 5xx through backend kills, convergence time, and
// detection precision/recall against the generator's planted copier
// cliques — emitted as a machine-readable verdict. See
// examples/scenarios and the "Workloads & soak testing" section of
// DESIGN.md.
//
// # Observability
//
// Both daemons expose Prometheus-format metrics on GET /metrics
// (internal/telemetry, stdlib-only): request rate/latency/in-flight by
// route, per-dataset convergence lag, scheduler and mirror queue
// depth, round durations, WAL fsync latency, backend health and
// failover counters. Requests carry an X-Copydetect-Trace ID from the
// gateway through the backends into asynchronous mirror deliveries,
// tying one write's access-log lines together across processes. Both
// daemons also admission-control appends: past a configurable
// high-water mark (-append-high-water on copydetectd, convergence
// backlog; -mirror-high-water on copygate, replica mirror queue) an
// append is refused with 429 + Retry-After instead of queueing without
// bound, and cmd/copyload honors the hint, retrying the batch and
// reporting it as throttled rather than failed.
//
// # Static analysis
//
// The repo polices its own invariants statically: internal/analysis
// (stdlib-only) implements five contract analyzers — determinism
// hygiene in the engine packages, zero-alloc hot paths, trace
// propagation in the cluster layer, metric label cardinality, and the
// binio sticky-error discipline — driven by //copydetect: annotations
// in the source. They run inside plain `go test ./...` (and so in CI),
// and as `go run ./cmd/copyvet ./...` for local iteration. See the
// "Static analysis (copyvet)" section of DESIGN.md.
//
// # Quick start
//
//	b := copydetect.NewBuilder()
//	b.Add("source-A", "NJ", "Trenton")
//	b.Add("source-B", "NJ", "Atlantic")
//	// ... more observations ...
//	ds := b.Build()
//
//	out := copydetect.Detect(ds, copydetect.AlgorithmHybrid, copydetect.DefaultParams())
//	for _, pr := range out.Copy.CopyingPairs() {
//	    fmt.Println(ds.SourceNames[pr.S1], "copies", ds.SourceNames[pr.S2])
//	}
//	truth := out.Truth // most probable value per item
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// mapping from paper sections to packages.
package copydetect
