package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/binio"
	"copydetect/internal/cluster"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/index"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
	"copydetect/internal/wal"
)

// replayRepeats is how many times a direct layer call is timed (its
// median is reported); replayAppends bounds the per-append probes of
// wal, server and http.
const (
	replayRepeats = 3
	replayAppends = 200
)

// layerReplay is the traced half of a run: it calls each layer's public
// entry points directly on this workload's own inputs, inside spans,
// and derives the per-layer metrics from them.
// best holds the end-to-end values the laps arrived at, for the
// per-layer metrics that are ratios of them.
func (r *run) layerReplay(ctx context.Context, best map[string]measured) error {
	root := r.tr.begin("replay", 0, 0)
	defer r.tr.end(root)
	var err error
	if r.tmpRoot, err = os.MkdirTemp(r.cfg.outDir, "tmp-"); err != nil {
		return err
	}
	defer r.teardown()
	lead := r.in.serve[0]
	r.replayDataset(root, best["load_s"], lead)
	r.replayDetection(root, best)
	if err := r.replayWAL(root, lead); err != nil {
		return err
	}
	return r.replayServer(ctx, root, lead)
}

// repeat times fn replayRepeats times inside spans called span and
// records each time, in milliseconds, as a sample of metric.
func (r *run) repeat(metric, span string, parent int, fn func()) {
	for i := 0; i < replayRepeats; i++ {
		r.add(metric, millis(r.tr.time(span, parent, fn)))
	}
}

// replayDataset covers the dataset layer: the Builder path an append
// takes, the snapshot every round starts with, and the binary codec the
// compactor and recovery use — on the lead serve dataset.
func (r *run) replayDataset(parent int, load measured, lead *stream) {
	obs := float64(r.batch.ds.NumObservations())
	r.add("dataset.read_json_ns_per_obs", load.Value*1e9/obs)

	b := dataset.NewBuilder()
	add := r.tr.time("dataset.Builder.AddRecords", parent, func() {
		for _, batch := range lead.ingest {
			b.AddRecords(batch)
		}
	})
	n := float64(lead.ingestObs())
	r.add("dataset.add_records_ns_per_obs", float64(add.Nanoseconds())/n)

	var ds *dataset.Dataset
	r.repeat("dataset.build_ms", "dataset.Builder.Build", parent, func() { ds = b.Build() })

	var buf bytes.Buffer
	r.repeat("dataset.encode_ms", "dataset.EncodeDataset", parent, func() {
		buf.Reset()
		dataset.EncodeDataset(binio.NewWriter(&buf), ds)
	})
	r.add("dataset.encoded_bytes_per_obs", float64(buf.Len())/n)
	r.repeat("dataset.decode_ms", "dataset.DecodeDataset", parent, func() {
		if got, err := dataset.DecodeDataset(binio.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
			r.fail("DecodeDataset of EncodeDataset output: %v", err)
		} else {
			dataset.NewBuilderFromDataset(got)
		}
	})
}

// spanDetector wraps a detector so every DetectRound inside
// TruthFinder.Run becomes a child span of the Run span.
type spanDetector struct {
	core.Detector
	tr     *tracer
	parent int
}

func (d *spanDetector) DetectRound(ds *dataset.Dataset, st *bayes.State, round int) *core.Result {
	sp := d.tr.begin("core.DetectRound", d.parent, round)
	defer d.tr.end(sp)
	return d.Detector.DetectRound(ds, st, round)
}

// Reset forwards to detectors that carry cross-round state, which the
// embedded interface alone would hide from core.ResetDetector.
func (d *spanDetector) Reset() { core.ResetDetector(d.Detector) }

// tracedRun is one TruthFinder.Run with its rounds as child spans.
type tracedRun struct {
	out        *fusion.Outcome
	wall       time.Duration
	round1     float64 // ms
	roundRest  float64 // ms, rounds 2..n together
	selfMs     float64 // Run span minus DetectRound spans
	round1St   *bayes.State
	allocBytes uint64
	allocs     uint64
}

// tracedRun runs the iterative process once under spans. With capture
// set it also keeps a copy of the state round 1 detected on (the copy
// is inside the Run span, so a capturing run's self time is not quoted).
func (r *run) tracedRun(parent int, name string, ds *dataset.Dataset, det core.Detector, capture bool) tracedRun {
	var tr tracedRun
	tf := &fusion.TruthFinder{Params: bayes.DefaultParams()}
	if capture {
		tf.OnRound = func(round int, _ *dataset.Dataset, st *bayes.State, _ *core.Result) {
			if round == 1 {
				tr.round1St = st.Clone()
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := r.tr.begin("fusion.TruthFinder.Run."+name, parent, 0)
	start := time.Now()
	tr.out = tf.Run(ds, &spanDetector{Detector: det, tr: r.tr, parent: sp})
	tr.wall = time.Since(start)
	r.tr.end(sp)
	runtime.ReadMemStats(&after)
	tr.allocBytes, tr.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs

	self := selfTimes(r.tr.all())
	tr.selfMs = float64(self[sp]) / 1e6
	for _, s := range r.tr.named("core.DetectRound") {
		if s.Parent != sp {
			continue
		}
		ms := float64(s.End-s.Start) / 1e6
		if s.Op == 1 {
			tr.round1 = ms
		} else {
			tr.roundRest += ms
		}
	}
	return tr
}

// replayDetection covers index, core and fusion on the batch dataset:
// HYBRID sequentially (what detect_seq_s runs) and INCREMENTAL at the
// machine's worker count (what detect_incremental_s and the daemon's
// refresh rounds run), with every DetectRound a span inside its Run.
func (r *run) replayDetection(parent int, best map[string]measured) {
	ds, params := r.batch.ds, bayes.DefaultParams()

	var s *index.Structure
	r.repeat("index.new_structure_ms", "index.NewStructure", parent, func() { s = index.NewStructure(ds) })
	r.add("index.entries", float64(s.NumEntries()))
	words := 0
	for i := range s.ItemBits {
		words += len(s.ItemBits[i]) + len(s.EntryBits[i])
	}
	r.add("index.bitset_mb", float64(words)*8/1e6)

	// The traced HYBRID run alternates with the same run untraced, and
	// the fastest of each side gives the tracing overhead: one pair
	// would mostly measure the machine's mood. The fastest traced run
	// is the one decomposed below.
	var hy tracedRun
	bare := time.Duration(1 << 62)
	for i := 0; i < replayRepeats; i++ {
		start := time.Now()
		tf := &fusion.TruthFinder{Params: params}
		tf.Run(ds, &core.Hybrid{Params: params, Opts: core.Options{Workers: 1}})
		bare = min(bare, time.Since(start))
		if run := r.tracedRun(parent, "hybrid", ds, &core.Hybrid{Params: params, Opts: core.Options{Workers: 1}}, false); i == 0 || run.wall < hy.wall {
			hy = run
		}
	}
	r.add("trace.overhead_share", (hy.wall-bare).Seconds()/bare.Seconds())
	in := r.tracedRun(parent, "incremental", ds, &core.Incremental{Params: params, Opts: core.Options{Workers: r.nproc}}, true)
	if got, want := outcomeDigest(ds, hy.out), outcomeDigest(ds, r.batch.hybrid); got != want {
		r.fail("traced HYBRID run digest %s differs from the untraced run's %s", got[:12], want[:12])
	}
	r.add("core.round1_ms.hybrid", hy.round1)
	r.add("core.round_rest_ms.hybrid", hy.roundRest)
	r.add("core.round1_ms.incremental", in.round1)
	r.add("core.round_rest_ms.incremental", in.roundRest)

	r.repeat("index.rescore_ms", "index.View.Rescore", parent, func() {
		index.NewView(s).Rescore(in.round1St, params, index.ByContribution, nil)
	})

	st := hy.out.TotalStats
	r.add("core.stats_detect_s", st.Detect.Seconds())
	r.add("core.stats_index_build_s", st.IndexBuild.Seconds())
	r.add("core.computations", float64(st.Computations))
	r.add("core.pairs_considered", float64(st.PairsConsidered))
	r.add("core.values_examined", float64(st.ValuesExamined))
	r.add("core.entries_scanned", float64(st.EntriesScanned))
	pairs := hy.out.Copy.CopyingPairs()
	r.add("core.copying_pairs", float64(len(pairs)))
	r.add("core.parallel_speedup", best["detect_seq_s"].Value/best["detect_hybrid_s"].Value)
	r.add("core.alloc_mb_per_detect", float64(hy.allocBytes)/1e6)
	r.add("core.allocs_per_detect", float64(hy.allocs))

	r.add("fusion.self_ms", hy.selfMs)
	r.add("fusion.program_ms", millis(hy.out.FusionTime))
	r.add("fusion.rounds", float64(hy.out.Rounds))
	var probs [][]float64
	r.repeat("fusion.value_probs_ms", "fusion.ValueProbs", parent, func() {
		probs = fusion.ValueProbs(ds, hy.out.State, params, nil)
	})
	r.repeat("fusion.accuracies_ms", "fusion.Accuracies", parent, func() { fusion.Accuracies(ds, probs) })

	tp := 0
	for _, pr := range pairs {
		if r.in.planted[pairKey(ds.SourceNames[pr.S1], ds.SourceNames[pr.S2])] {
			tp++
		}
	}
	r.add("gen.planted_tp", float64(tp))
	r.add("gen.planted_fp", float64(len(pairs)-tp))

}

// walPayload is an opaque record about as large as the one the serving
// layer logs for an append batch — every string of every record with a
// length byte — so the wal replay writes records the size of real ones
// without knowing their format.
func walPayload(recs []dataset.Record) []byte {
	n := 0
	for _, rec := range recs {
		n += len(rec.Source) + len(rec.Item) + len(rec.Value) + 3
	}
	return make([]byte, n)
}

// replayWAL covers the write-ahead log alone: append latency with and
// without fsync on payloads the size of the lead dataset's real
// batches, the fsync share of an append, and replay at Open.
func (r *run) replayWAL(parent int, lead *stream) error {
	payloads := make([][]byte, len(lead.ingest))
	for i, batch := range lead.ingest {
		payloads[i] = walPayload(batch)
	}
	appendAll := func(dir string, fsync bool, payloads [][]byte) (us []float64, share float64, err error) {
		var total, synced time.Duration
		log, err := wal.Open(dir, wal.Options{Fsync: fsync, ObserveAppend: func(t, f time.Duration) { total += t; synced += f }}, nil)
		if err != nil {
			return nil, 0, err
		}
		for _, p := range payloads {
			d := r.tr.time("wal.Log.Append", parent, func() { _, err = log.Append(p) })
			if err != nil {
				_ = log.Close()
				return nil, 0, err
			}
			us = append(us, micros(d))
		}
		if err := log.Close(); err != nil {
			return nil, 0, err
		}
		return us, synced.Seconds() / total.Seconds(), nil
	}

	syncDir, plainDir := filepath.Join(r.tmpRoot, "wal-fsync"), filepath.Join(r.tmpRoot, "wal-plain")
	synced := payloads[:min(len(payloads), replayAppends)]
	us, share, err := appendAll(syncDir, true, synced)
	if err != nil {
		return err
	}
	r.add("wal.append_us_p50", us...)
	r.add("wal.fsync_share", share)
	if us, _, err = appendAll(plainDir, false, payloads); err != nil {
		return err
	}
	r.add("wal.append_nosync_us_p50", us...)
	r.add("wal.bytes_per_obs", float64(dirBytes(plainDir))/float64(lead.ingestObs()))

	replayed := 0
	var log *wal.Log
	d := r.tr.time("wal.Open", parent, func() {
		log, err = wal.Open(plainDir, wal.Options{}, func(uint64, []byte) error { replayed++; return nil })
	})
	if err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	if replayed != len(payloads) {
		r.fail("wal.Open replayed %d records, %d were appended", replayed, len(payloads))
	}
	r.add("wal.replay_ms", millis(d))
	return nil
}

// replayServer covers the serving layer without a process boundary, on
// one durable in-process registry: the lead dataset's first batches go
// alternately straight into Managed.Append and through NewHandler's
// ServeHTTP, so both see the same growing dataset and the same rounds
// behind them, and the difference of their medians is what JSON
// decoding and the handler add; then quiet reads of the converged
// dataset through the handler.
func (r *run) replayServer(ctx context.Context, parent int, lead *stream) error {
	reg, err := server.Open(server.Config{
		DataDir: filepath.Join(r.tmpRoot, "reg"), Fsync: true,
		Options: core.Options{Workers: r.nproc},
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	name := lead.name
	m, err := reg.Create(name, server.DatasetConfig{})
	if err != nil {
		return err
	}
	h := server.NewHandler(reg)
	serve := func(span, method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, "/v1/datasets/"+name+path, bytes.NewReader(body))
		return rec, r.tr.time(span, parent, func() { h.ServeHTTP(rec, req) })
	}
	var directUs, httpUs []float64
	for i := 0; i < min(len(lead.ingest), replayAppends); i++ {
		if i%2 == 0 {
			d := r.tr.time("server.Managed.Append", parent, func() { _, _, err = m.Append(lead.ingest[i], nil) })
			if err != nil {
				return err
			}
			directUs = append(directUs, micros(d))
			continue
		}
		rec, d := serve("http.Handler.append", http.MethodPost, "/observations", lead.ingestBodies[i])
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("in-process append: status %d: %s", rec.Code, rec.Body)
		}
		httpUs = append(httpUs, micros(d))
	}
	r.add("server.append_us_p50", directUs...)
	r.add("http.append_overhead_us", median(httpUs)-median(directUs))

	if _, err := reg.Quiesce(ctx, name); err != nil {
		return err
	}
	truthBytes := 0
	for _, read := range []struct{ metric, path string }{{"http.copies_us", "/copies"}, {"http.truth_us", "/truth"}} {
		var us []float64
		for i := 0; i < 20; i++ {
			rec, d := serve("http.Handler"+read.path, http.MethodGet, read.path, nil)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process GET %s: status %d", read.path, rec.Code)
			}
			us = append(us, micros(d))
			truthBytes = rec.Body.Len()
		}
		r.add(read.metric, us...)
	}
	r.add("http.truth_bytes", float64(truthBytes)) // the last path read was /truth
	return nil
}

// scrape reads the daemon's /metrics once (timed: the telemetry layer's
// own cost) and reports what the program counted about itself during
// the ingest. It returns the number of rounds published so far.
func (r *run) scrape(ctx context.Context) (float64, error) {
	sp := r.tr.begin("client.scrape", 0, 0)
	resp, err := r.call(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	r.add("telemetry.scrape_ms", millis(resp.took))
	samples, err := telemetry.ParseLines(bytes.NewReader(resp.body))
	if err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	sums := make(map[string]float64)
	for _, s := range samples {
		key := s.Name
		if s.Name == "copydetectd_rounds_total" {
			key += "." + strings.ToLower(s.Labels["algorithm"])
		}
		sums[key] += s.Value
	}
	hybrid, incremental := sums["copydetectd_rounds_total.hybrid"], sums["copydetectd_rounds_total.incremental"]
	r.add("server.rounds_published.hybrid", hybrid)
	r.add("server.rounds_published.incremental", incremental)
	r.add("server.round_seconds_sum", sums["copydetectd_round_duration_seconds_sum"])
	r.add("server.wal_seconds_sum", sums["copydetectd_wal_append_seconds_sum"])
	r.add("server.fsync_seconds_sum", sums["copydetectd_wal_fsync_seconds_sum"])
	return hybrid + incremental, nil
}

// gatewayProbe measures what one cluster.Gateway hop adds: an
// in-process gateway (one backend: the child daemon, replication 1)
// behind httptest, with identical requests sent alternately through it
// and straight to the daemon. Reads hit the lead dataset; appends go to
// a scratch dataset so the checked datasets stay as they are.
func (r *run) gatewayProbe(ctx context.Context, name string) error {
	gw, err := cluster.New(cluster.Config{Backends: []string{r.d.base}, Replication: 1})
	if err != nil {
		return err
	}
	defer gw.Close()
	front := httptest.NewServer(gw)
	defer front.Close()

	const scratch = "gateway-probe"
	if _, err := r.call(ctx, http.MethodPut, "/v1/datasets/"+scratch, nil, http.StatusCreated); err != nil {
		return err
	}
	probe := func(span, method, path string, body func(i int) []byte, want int) (float64, error) {
		var via, direct []float64
		for i := 0; i < 2*probeRequests; i++ {
			base, into, sp := r.d.base, &direct, span+".direct"
			if i%2 == 0 {
				base, into, sp = front.URL, &via, span+".gateway"
			}
			var b []byte
			if body != nil {
				b = body(i)
			}
			id := r.tr.begin(sp, 0, 0)
			resp, err := r.send(ctx, method, base+path, b)
			r.tr.end(id)
			if err != nil {
				return 0, err
			}
			if resp.status != want {
				return 0, fmt.Errorf("%s %s: status %d: %s", method, base+path, resp.status, resp.body)
			}
			*into = append(*into, micros(resp.took))
		}
		return median(via) - median(direct), nil
	}
	read, err := probe("cluster.read", http.MethodGet, "/v1/datasets/"+name+"/copies", nil, http.StatusOK)
	if err != nil {
		return err
	}
	r.add("cluster.proxy_read_overhead_us", read)
	write, err := probe("cluster.append", http.MethodPost, "/v1/datasets/"+scratch+"/observations", func(i int) []byte {
		return []byte(fmt.Sprintf(`{"observations":[{"s":"probe","d":"item-%d","v":"x"}]}`, i))
	}, http.StatusAccepted)
	if err != nil {
		return err
	}
	r.add("cluster.proxy_append_overhead_us", write)
	_, err = r.call(ctx, http.MethodDelete, "/v1/datasets/"+scratch, nil, http.StatusOK)
	return err
}

const probeRequests = 50
