package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
)

// The daemon's JSON bodies, reduced to the fields the benchmark reads.
type (
	statsBody struct {
		Version       uint64  `json:"version"`
		Observations  int     `json:"observations"`
		Converged     bool    `json:"converged"`
		ServedVersion uint64  `json:"servedVersion"`
		DetectMillis  float64 `json:"detectMillis"`
		FusionMillis  float64 `json:"fusionMillis"`
		WallMillis    float64 `json:"wallMillis"`
	}
	copiesBody struct {
		Version   uint64 `json:"version"`
		Algorithm string `json:"algorithm"`
		Pairs     []struct {
			S1        string `json:"s1"`
			S2        string `json:"s2"`
			Direction string `json:"direction"`
		} `json:"pairs"`
	}
	truthBody struct {
		Truth map[string]string `json:"truth"`
	}
)

// acked is what the daemon has acknowledged for one dataset.
type acked struct {
	version uint64
	obs     int
}

// serveCycle is the service user's path against the lap's child
// daemon: bulk ingest by one closed-loop client per dataset, drain, a
// graceful restart on the same data directory, then refresh ops (small
// append -> quiesce) beside an open-loop reader. It ends by comparing
// what every dataset serves with what it served in earlier laps.
func (r *run) serveCycle(ctx context.Context) error {
	cpu0, wall0 := cpuTime(), time.Now()
	acks, err := r.ingest(ctx)
	if err != nil {
		return err
	}
	if err := r.restart(ctx, acks); err != nil {
		return err
	}
	late, err := r.refresh(ctx, acks)
	if err != nil {
		return err
	}
	r.add("loadgen.cpu_share", (cpuTime()-cpu0).Seconds()/time.Since(wall0).Seconds())
	r.add("loadgen.read_late_ms_p99", allMillis(late)...)

	for i, st := range r.in.serve {
		got, err := r.servedDigest(ctx, st.name, acks[i].version)
		if err != nil {
			return err
		}
		if len(r.served) <= i {
			r.served = append(r.served, got)
		} else if got != r.served[i] {
			r.fail("%s: this lap serves digest %s, an earlier lap served %s from the same appends", st.name, got[:12], r.served[i][:12])
		}
	}
	return nil
}

// ingest streams every dataset's bulk batches, one closed-loop client
// per dataset (the next append is sent when the previous one is
// acknowledged), then waits for every dataset to converge.
func (r *run) ingest(ctx context.Context) ([]acked, error) {
	type result struct {
		lat   []time.Duration
		ack   acked
		first time.Time
		last  time.Time
		err   error
	}
	results := make([]result, len(r.in.serve))
	var wg sync.WaitGroup
	for i, st := range r.in.serve {
		wg.Add(1)
		go func(res *result, st *stream) {
			defer wg.Done()
			res.first = time.Now()
			path := r.d.base + "/v1/datasets/" + st.name + "/observations"
			var resp response
			for _, body := range st.ingestBodies {
				sp := r.tr.begin("client.append", 0, r.newOp())
				var err error
				resp, err = r.send(ctx, http.MethodPost, path, body)
				r.tr.end(sp)
				if err == nil && resp.status != http.StatusAccepted {
					err = fmt.Errorf("append to %s: status %d: %s", st.name, resp.status, resp.body)
				}
				if err != nil {
					res.err = err
					return
				}
				res.last = time.Now()
				res.lat = append(res.lat, resp.took)
			}
			// Only the last acknowledgement is read: it carries the
			// version and observation count everything later is held to.
			var ack statsBody
			if err := json.Unmarshal(resp.body, &ack); err != nil {
				res.err = err
				return
			}
			res.ack = acked{version: ack.Version, obs: ack.Observations}
		}(&results[i], st)
	}
	wg.Wait()

	var (
		lat         []time.Duration
		acks        []acked
		obs         int
		first, last time.Time
	)
	for i, res := range results {
		r.attempted += len(res.lat)
		if res.err != nil {
			r.op(res.err)
			return nil, res.err
		}
		if want := r.in.serve[i].ingestObs(); res.ack.obs != want {
			r.fail("%s: daemon acknowledged %d observations after ingest, sent %d", r.in.serve[i].name, res.ack.obs, want)
		}
		lat = append(lat, res.lat...)
		acks = append(acks, res.ack)
		obs += res.ack.obs
		if first.IsZero() || res.first.Before(first) {
			first = res.first
		}
		if res.last.After(last) {
			last = res.last
		}
	}
	ms := allMillis(lat)
	r.add("ingest_obs_per_s", float64(obs)/last.Sub(first).Seconds())
	for _, name := range []string{"append_p50_ms", "server.append_p99_ms", "server.append_max_ms"} {
		r.add(name, ms...)
	}

	for _, st := range r.in.serve {
		if _, err := r.quiesce(ctx, st.name, 0); err != nil {
			return nil, err
		}
	}
	r.add("server.drain_s", time.Since(last).Seconds())
	rounds, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	r.add("server.rounds_per_append", rounds/float64(len(lat)))
	r.add("server.disk_bytes_per_obs", float64(dirBytes(r.dataDir))/float64(obs))
	return acks, nil
}

// newOp hands out the next operation id for span tagging.
func (r *run) newOp() int { return int(r.nextOp.Add(1)) }

// quiesce blocks until the dataset's published round covers every
// append and returns the daemon's stats for that round.
func (r *run) quiesce(ctx context.Context, name string, parent int) (statsBody, error) {
	var st statsBody
	sp := r.tr.begin("client.quiesce", parent, 0)
	resp, err := r.call(ctx, http.MethodPost, "/v1/datasets/"+name+"/quiesce", nil, http.StatusOK)
	r.tr.end(sp)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(resp.body, &st); err != nil {
		return st, err
	}
	if !st.Converged || st.ServedVersion != st.Version {
		return st, fmt.Errorf("quiesce %s returned unconverged state: %s", name, resp.body)
	}
	return st, nil
}

// restartsPerLap repeats the restart, cheap next to the rest of a lap,
// so restart_s rests on more samples than there are laps.
const restartsPerLap = 2

// restart measures the durability path: SIGTERM, wait for exit, start
// on the same data directory, and poll until every dataset answers as
// converged at its acknowledged version. Output check 3: version,
// observation count and the copies body (with its ETag) survive.
func (r *run) restart(ctx context.Context, acks []acked) error {
	before := make([]response, len(r.in.serve))
	for i, st := range r.in.serve {
		resp, err := r.call(ctx, http.MethodGet, "/v1/datasets/"+st.name+"/copies", nil, http.StatusOK)
		if err != nil {
			return err
		}
		before[i] = resp
	}
	r.add("server.peak_rss_mb", r.d.peakRSS())

	for n := 0; n < restartsPerLap; n++ {
		sp := r.tr.begin("client.restart", 0, r.newOp())
		down, err := r.d.stop()
		r.d = nil
		if err == nil {
			r.d, err = startDaemon(ctx, r.cfg.daemonBin, r.dataDir, r.logPath)
		}
		for i := 0; err == nil && i < len(acks); i++ {
			err = r.awaitRecovered(ctx, r.in.serve[i].name, acks[i])
		}
		if err != nil {
			r.op(err)
			return err
		}
		r.add("restart_s", time.Since(r.d.execAt).Seconds())
		r.add("server.shutdown_ms", millis(down))
		r.tr.end(sp)

		for i, st := range r.in.serve {
			after, err := r.call(ctx, http.MethodGet, "/v1/datasets/"+st.name+"/copies", nil, http.StatusOK)
			if err == nil && (after.etag != before[i].etag || string(after.body) != string(before[i].body)) {
				err = fmt.Errorf("%s: copies changed across a restart (ETag %s -> %s)", st.name, before[i].etag, after.etag)
			}
			if err != nil {
				r.op(err)
				return err
			}
		}
		r.op(nil)
	}
	return nil
}

// awaitRecovered polls dataset info until the restarted daemon reports
// it converged at the acknowledged version and observation count.
func (r *run) awaitRecovered(ctx context.Context, name string, want acked) error {
	for {
		resp, err := r.call(ctx, http.MethodGet, "/v1/datasets/"+name, nil, http.StatusOK)
		if err != nil {
			return err
		}
		var info statsBody
		if err := json.Unmarshal(resp.body, &info); err != nil {
			return err
		}
		if info.Version != want.version || info.Observations != want.obs {
			return fmt.Errorf("%s after restart: version %d with %d observations, acknowledged %d with %d",
				name, info.Version, info.Observations, want.version, want.obs)
		}
		if info.Converged {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// refresh runs the small-append life cycle on converged datasets: each
// op appends the next held-back batch to a dataset (round-robin, so
// every dataset ends on an INCREMENTAL round) and waits for a published
// round to cover it. An open-loop reader runs beside the ops, on the
// first dataset. It returns how late the reader fired and advances acks
// to what is now acknowledged.
func (r *run) refresh(ctx context.Context, acks []acked) ([]time.Duration, error) {
	stop := make(chan struct{})
	var (
		reads readLog
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = r.reader(ctx, stop, r.in.serve[0].name, time.Duration(float64(time.Second)/readRate))
	}()

	var opMs, wallMs, detectMs, fusionMs, overheadMs []float64
	var opErr error
	for i := 0; i < refreshOps && opErr == nil; i++ {
		which := i % len(r.in.serve)
		st, ack, batch := r.in.serve[which], &acks[which], i/len(r.in.serve)
		sp := r.tr.begin("client.refresh", 0, r.newOp())
		t := time.Now()
		asp := r.tr.begin("client.append", sp, 0)
		_, err := r.call(ctx, http.MethodPost, "/v1/datasets/"+st.name+"/observations", st.refreshBodies[batch], http.StatusAccepted)
		r.tr.end(asp)
		var round statsBody
		if err == nil {
			round, err = r.quiesce(ctx, st.name, sp)
		}
		took := time.Since(t)
		r.tr.end(sp)
		ack.version++
		ack.obs += len(st.refresh[batch])
		if err == nil && (round.Version != ack.version || round.Observations != ack.obs) {
			err = fmt.Errorf("refresh op %d: round covers version %d with %d observations, want %d with %d",
				i+1, round.Version, round.Observations, ack.version, ack.obs)
		}
		r.op(err)
		opErr = err
		opMs = append(opMs, millis(took))
		wallMs = append(wallMs, round.WallMillis)
		detectMs = append(detectMs, round.DetectMillis)
		fusionMs = append(fusionMs, round.FusionMillis)
		overheadMs = append(overheadMs, millis(took)-round.WallMillis)
	}
	close(stop)
	wg.Wait()
	if opErr != nil {
		return nil, opErr
	}
	for _, err := range reads.errs {
		r.op(err)
	}
	r.attempted += len(reads.lat)
	if len(reads.lat) == 0 {
		return nil, fmt.Errorf("no read completed during %d refresh ops", len(opMs))
	}
	r.add("refresh_p50_ms", opMs...)
	r.add("refresh_p80_ms", opMs...)
	r.add("server.round_wall_ms", wallMs...)
	r.add("server.round_detect_ms", detectMs...)
	r.add("server.round_fusion_ms", fusionMs...)
	r.add("server.round_overhead_ms", overheadMs...)
	readMs := allMillis(reads.lat)
	r.add("read_p50_ms", readMs...)
	r.add("http.read_p99_ms", readMs...)
	return reads.late, nil
}

// readLog is what the open-loop reader saw: per poll, the latency from
// its due time and how late it was sent.
type readLog struct {
	lat, late []time.Duration
	errs      []error
}

// reader polls a dataset every `every` until stop closes. One
// poll is what a client refreshing its view does: GET copies, then GET
// truth, no If-None-Match. The loop is open: poll i is due at start +
// i*every whatever happened to poll i-1, and its latency runs from that
// due time until the truth body has arrived, so a stall is charged to
// every poll it delayed, not just the one that hit it.
func (r *run) reader(ctx context.Context, stop <-chan struct{}, name string, every time.Duration) readLog {
	var log readLog
	base := r.d.base + "/v1/datasets/" + name
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		select {
		case <-stop:
			return log
		case <-ctx.Done():
			return log
		case <-time.After(time.Until(due)):
		}
		fired := time.Now()
		sp := r.tr.begin("client.read", 0, 0)
		var err error
		for _, path := range []string{"/copies", "/truth"} {
			var resp response
			if resp, err = r.send(ctx, http.MethodGet, base+path, nil); err == nil && resp.status != http.StatusOK {
				err = fmt.Errorf("read %s: status %d", base+path, resp.status)
			}
			if err != nil {
				break
			}
		}
		r.tr.end(sp)
		if err != nil {
			log.errs = append(log.errs, err)
			continue
		}
		log.lat = append(log.lat, time.Since(due))
		log.late = append(log.late, fired.Sub(due))
	}
}

// servedDigest fetches what the daemon finally serves for one dataset
// and fingerprints it by names.
func (r *run) servedDigest(ctx context.Context, name string, version uint64) (string, error) {
	var copies copiesBody
	var truth truthBody
	for path, into := range map[string]any{"/copies": &copies, "/truth": &truth} {
		resp, err := r.call(ctx, http.MethodGet, "/v1/datasets/"+name+path, nil, http.StatusOK)
		if err != nil {
			return "", err
		}
		if err := json.Unmarshal(resp.body, into); err != nil {
			return "", err
		}
	}
	if copies.Version != version || copies.Algorithm != "INCREMENTAL" {
		r.fail("%s: final copies from a %s round at version %d, want INCREMENTAL at the acknowledged version %d",
			name, copies.Algorithm, copies.Version, version)
	}
	var pairs []string
	for _, p := range copies.Pairs {
		pairs = append(pairs, p.S1+"|"+p.S2+"|"+p.Direction)
	}
	return digest(pairs, truth.Truth), nil
}

// checkReference is output check 2: what every lap's daemon finally
// served equals an in-process reference built the way
// TestStreamedEqualsBatch builds it — the identical append sequence
// replayed into a fresh Builder, then one iterative run with
// INCREMENTAL, which is what the daemon's last round ran.
func (r *run) checkReference() {
	params := bayes.DefaultParams()
	for i, st := range r.in.serve {
		b := dataset.NewBuilder()
		for _, batch := range st.ingest {
			b.AddRecords(batch)
		}
		for op := i; op < refreshOps; op += len(r.in.serve) {
			b.AddRecords(st.refresh[op/len(r.in.serve)])
		}
		final := b.Build()
		tf := &fusion.TruthFinder{Params: params}
		want := tf.Run(final, &core.Incremental{Params: params, Opts: core.Options{Workers: r.nproc}})
		if ref := outcomeDigest(final, want); r.served[i] != ref {
			r.fail("%s: served copies/truth (digest %s) differ from the in-process reference (digest %s, %d pairs)",
				st.name, r.served[i][:12], ref[:12], len(want.Copy.CopyingPairs()))
		}
	}
}

// cpuTime is the CPU this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
