package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"copydetect/internal/dataset"
	"copydetect/internal/gen"
	"copydetect/internal/telemetry"
)

// Injector executes a failure-injection step. The engine schedules the
// steps; the embedder decides what they mean — cmd/copyload signals
// backend processes by PID, the cluster e2e kills its own children.
type Injector interface {
	Inject(ctx context.Context, step InjectStep) error
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(ctx context.Context, step InjectStep) error

// Inject implements Injector.
func (f InjectorFunc) Inject(ctx context.Context, step InjectStep) error { return f(ctx, step) }

// Runner executes scenarios against one target.
type Runner struct {
	// Target is the base URL of a copydetectd daemon or copygate
	// gateway.
	Target string
	// Client is the HTTP client (default: 60s timeout).
	Client *http.Client
	// Injector handles the spec's inject steps. Required when the spec
	// has any; a run without one fails validation up front.
	Injector Injector
	// ScrapeTargets are the /metrics endpoints scraped at phase
	// boundaries (default: just Target). A target that stops answering
	// — a killed backend — is skipped and noted, not fatal.
	ScrapeTargets []string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	prev5xx map[string]float64 // per-target cumulative 5xx at the last boundary
}

const (
	defaultBatch   = 500
	defaultClients = 4
	// maxConsecutiveThrottles bounds 429 retries of one batch; past it
	// the target is wedged, not busy.
	maxConsecutiveThrottles = 120
	// maxStreamRetries bounds 5xx/transport retries of one batch
	// before the stream is abandoned (appending around a hole would
	// corrupt the dataset's sequential order).
	maxStreamRetries = 8
	retryBackoff     = 100 * time.Millisecond
)

// stream is one dataset's pending work.
type stream struct {
	name      string
	planted   *gen.Planted
	byName    map[string]dataset.SourceID
	batches   [][]dataset.Record
	obs       int
	next      int
	stalls    int // consecutive 429s
	retries   int // consecutive 5xx/transport failures
	abandoned bool
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run executes the scenario and returns its verdict. slo overrides the
// spec's embedded SLO block when non-nil. Setup failures (bad spec,
// unreachable target, missing injector) return an error; failures
// during the run are measured into the verdict instead — the report is
// most valuable for exactly the runs that go wrong.
func (r *Runner) Run(ctx context.Context, spec *Spec, slo *SLO) (*Verdict, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if slo == nil {
		slo = spec.SLO
	}
	if r.Injector == nil {
		for _, p := range spec.Phases {
			if len(p.Inject) > 0 {
				return nil, fmt.Errorf("scenario: phase %q has inject steps but no injector is configured", p.Name)
			}
		}
	}
	client := r.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	scrapes := r.ScrapeTargets
	if len(scrapes) == 0 {
		scrapes = []string{r.Target}
	}
	r.prev5xx = map[string]float64{}

	streams, err := r.buildStreams(spec)
	if err != nil {
		return nil, err
	}
	v := &Verdict{
		Scenario: spec.Name,
		Target:   r.Target,
		Datasets: len(streams),
	}
	for _, st := range streams {
		v.Observations += st.obs
	}
	base := r.Target + "/v1/datasets/"
	for _, st := range streams {
		status, _, body, err := doJSON(ctx, client, http.MethodPut, base+st.name, nil)
		if err != nil || status != http.StatusCreated {
			return nil, fmt.Errorf("scenario: create %s: status=%d err=%v body=%s", st.name, status, err, body)
		}
	}

	start := time.Now()
	weights := gen.ZipfWeights(len(streams), spec.Zipf)
	for pi := range spec.Phases {
		p := &spec.Phases[pi]
		r.logf("phase %q: %v at %g batches/s", p.Name, p.Duration.Duration, p.Rate)
		rep := r.runPhase(ctx, client, p, streams, weights)
		rep.Scrape = r.scrapeBoundary(client, scrapes)
		v.Phases = append(v.Phases, rep)
	}

	// Drain: stream every remaining batch unpaced. Quality is scored
	// against the planted truth of the *complete* datasets, so all the
	// evidence — including late churn waves — must land before the
	// quiesce; a phase ending on its wall clock is not a reason to score
	// detection on half the data.
	if !allDone(streams) {
		r.logf("drain: streaming remaining batches")
		rep := r.runPhase(ctx, client, &Phase{Name: "(drain)"}, streams, weights)
		rep.Scrape = r.scrapeBoundary(client, scrapes)
		v.Phases = append(v.Phases, rep)
	}

	// Quiesce: drive every dataset to convergence and time it — the
	// operational convergence-lag bound once load stops.
	q0 := time.Now()
	for _, st := range streams {
		status, _, body, err := doJSON(ctx, client, http.MethodPost, base+st.name+"/quiesce", nil)
		if err != nil || status != http.StatusOK {
			r.logf("quiesce %s: status=%d err=%v body=%s", st.name, status, err, body)
			v.QuiesceErrors++
		}
	}
	v.QuiesceSeconds = time.Since(q0).Seconds()

	v.Quality = r.scoreQuality(ctx, client, streams)
	v.WallSeconds = time.Since(start).Seconds()
	v.evaluate(slo)
	return v, nil
}

// buildStreams generates every declared dataset up front so generation
// cost never pollutes the measured phases.
func (r *Runner) buildStreams(spec *Spec) ([]*stream, error) {
	batch := spec.Batch
	if batch == 0 {
		batch = defaultBatch
	}
	var streams []*stream
	idx := 0
	for gi := range spec.Datasets {
		g := &spec.Datasets[gi]
		scale := g.Scale
		if scale == 0 {
			scale = 1
		}
		prefix := g.Prefix
		if prefix == "" {
			prefix = "scn"
		}
		for j := 0; j < g.groupCount(); j++ {
			cfg, err := gen.Preset(g.Preset, g.Seed+int64(j))
			if err != nil {
				return nil, fmt.Errorf("scenario: dataset %d: %w", idx, err)
			}
			ds, pl, err := gen.Generate(gen.Scale(cfg, scale))
			if err != nil {
				return nil, fmt.Errorf("scenario: generate dataset %d (%s): %w", idx, g.Preset, err)
			}
			waves := [][]dataset.Record{dataset.Records(ds)}
			if g.Churn != nil {
				waves = gen.ChurnRecords(ds, g.Churn.Waves, g.Churn.LateFraction, g.Seed+int64(j))
			}
			st := &stream{
				name:    fmt.Sprintf("%s-%d", prefix, idx),
				planted: pl,
				byName:  make(map[string]dataset.SourceID, ds.NumSources()),
			}
			for s, name := range ds.SourceNames {
				st.byName[name] = dataset.SourceID(s)
			}
			for _, wave := range waves {
				for s := 0; s < len(wave); s += batch {
					e := min(s+batch, len(wave))
					st.batches = append(st.batches, wave[s:e])
				}
				st.obs += len(wave)
			}
			streams = append(streams, st)
			idx++
		}
	}
	return streams, nil
}

// runPhase drives one phase: a shared pacer (burst-aware), scheduled
// injections, and per-client append loops with zipf-weighted dataset
// selection. A phase without a duration ends when the streams are
// exhausted, and exhaustion is its purpose, not starvation.
func (r *Runner) runPhase(ctx context.Context, client *http.Client, p *Phase, streams []*stream, weights []float64) PhaseReport {
	clients := p.Clients
	if clients == 0 {
		clients = defaultClients
	}
	if clients > len(streams) {
		clients = len(streams)
	}
	timed := p.Duration.Duration > 0
	phaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if timed {
		var stop context.CancelFunc
		phaseCtx, stop = context.WithTimeout(phaseCtx, p.Duration.Duration)
		defer stop()
	}
	start := time.Now()

	// Pacer: one shared token stream; during a burst window the
	// interval shrinks by the burst factor. Each token is due at an
	// absolute time, start plus the intervals before it, so a late
	// wake-up delays that token only, not every one after it. The first
	// is due at start and none at or past the phase's deadline, so d
	// seconds at r/s are r·d tokens. The channel banks at most one token
	// per client, so a slow stretch is caught up without letting the run
	// stampede far past the target.
	var tokens chan struct{}
	if p.Rate > 0 {
		tokens = make(chan struct{}, clients)
		deadline, _ := phaseCtx.Deadline()
		go func() {
			for due := start; deadline.IsZero() || due.Before(deadline); {
				select {
				case <-phaseCtx.Done():
					return
				case <-time.After(time.Until(due)):
				}
				select {
				case tokens <- struct{}{}:
				default:
				}
				rate := p.Rate
				if b := p.Burst; b != nil {
					if due.Sub(start)%b.Every.Duration < b.Length.Duration {
						rate *= b.Factor
					}
				}
				due = due.Add(time.Duration(float64(time.Second) / rate))
			}
		}()
	}

	// Injections: scheduled at their offsets, recorded with outcomes.
	var injMu sync.Mutex
	var injected []string
	injErrors := 0
	var injWG sync.WaitGroup
	for _, step := range p.Inject {
		step := step
		injWG.Add(1)
		go func() {
			defer injWG.Done()
			select {
			case <-phaseCtx.Done():
				return
			case <-time.After(step.At.Duration):
			}
			desc := fmt.Sprintf("%s %d @%v", step.Action, step.Backend, step.At.Duration)
			if step.Action == "exec" {
				desc = fmt.Sprintf("exec %s @%v", strings.Join(step.Cmd, " "), step.At.Duration)
			}
			r.logf("inject: %s", desc)
			err := r.Injector.Inject(phaseCtx, step)
			injMu.Lock()
			defer injMu.Unlock()
			if err != nil {
				desc += ": " + err.Error()
				injErrors++
			}
			injected = append(injected, desc)
		}()
	}

	// Clients: client c owns streams i with i%clients == c for this
	// phase (phases are sequential, so ownership may move between
	// phases without breaking per-dataset append order).
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		var own []*stream
		for i := c; i < len(streams); i += clients {
			own = append(own, streams[i])
		}
		var w []float64
		for i := c; i < len(streams); i += clients {
			w = append(w, weights[i])
		}
		if len(own) == 0 {
			continue
		}
		wg.Add(1)
		go func(c int, own []*stream, w []float64) {
			defer wg.Done()
			res := &results[c]
			rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
			readCarry := 0.0
			for {
				st := pickStream(rng, own, w)
				if st == nil {
					return // every owned stream exhausted or abandoned
				}
				if tokens != nil {
					select {
					case <-phaseCtx.Done():
						return
					case <-tokens:
					}
				} else if phaseCtx.Err() != nil {
					return
				}
				ok := r.appendBatch(phaseCtx, client, st, res)
				if ok && p.Reads > 0 {
					readCarry += p.Reads
					for ; readCarry >= 1; readCarry-- {
						target := pickStream(rng, own, w)
						if target == nil {
							target = st
						}
						status, _, _, err := doJSON(phaseCtx, client, http.MethodGet,
							r.Target+"/v1/datasets/"+target.name+"/copies", nil)
						if phaseCtx.Err() != nil {
							return
						}
						res.reads++
						if err != nil || status != http.StatusOK {
							if status >= 500 {
								res.e5xx++
							} else {
								res.eOther++
							}
						}
					}
				}
			}
		}(c, own, w)
	}
	wg.Wait()
	if timed {
		<-phaseCtx.Done() // a starved phase still occupies its wall-clock slot
	}
	cancel()
	injWG.Wait()
	wall := time.Since(start)

	// The rate SLO compares against the *effective* target: a burst
	// phase deliberately exceeds its base rate during burst windows, so
	// the time-weighted average is what following the spec means.
	target := p.Rate
	if b := p.Burst; b != nil && p.Rate > 0 {
		frac := b.Length.Seconds() / b.Every.Seconds()
		target = p.Rate * (1 + (b.Factor-1)*frac)
	}
	rep := PhaseReport{
		Name:       p.Name,
		TargetRate: target,
		Seconds:    wall.Seconds(),
		Injected:   injected,
	}
	var latencies []time.Duration
	for _, res := range results {
		rep.Appends += res.appends
		rep.Observations += res.obs
		rep.Reads += res.reads
		rep.Throttled += res.throttled
		rep.Errors5xx += res.e5xx
		rep.OtherErrors += res.eOther
		latencies = append(latencies, res.latencies...)
	}
	rep.OtherErrors += injErrors
	if wall > 0 {
		rep.AchievedRate = float64(rep.Appends) / wall.Seconds()
	}
	rep.Latency = summarizeLatency(latencies)
	rep.Starved = timed && allDone(streams)
	return rep
}

// clientResult accumulates one client goroutine's tallies for a phase.
type clientResult struct {
	appends, obs, reads     int
	throttled, e5xx, eOther int
	latencies               []time.Duration
}

// appendBatch sends the stream's next batch, honoring 429 backpressure
// (retry in place after Retry-After) and retrying 5xx/transport
// failures a bounded number of times — nothing was applied on those, so
// the stream has no hole. Returns whether a batch landed.
func (r *Runner) appendBatch(ctx context.Context, client *http.Client, st *stream, res *clientResult) bool {
	if st.abandoned || st.next >= len(st.batches) {
		return false
	}
	batch := st.batches[st.next]
	body := map[string][]dataset.Record{"observations": batch}
	t0 := time.Now()
	status, hdr, _, err := doJSON(ctx, client, http.MethodPost,
		r.Target+"/v1/datasets/"+st.name+"/observations", body)
	if ctx.Err() != nil {
		return false // phase deadline mid-request; the batch is re-sent next phase
	}
	switch {
	case err == nil && status == http.StatusAccepted:
		st.next++
		st.stalls, st.retries = 0, 0
		res.appends++
		res.obs += len(batch)
		res.latencies = append(res.latencies, time.Since(t0))
		return true
	case err == nil && status == http.StatusTooManyRequests:
		// Backpressure, not failure: honor the hint, retry the same
		// batch — nothing was applied, so the stream has no hole.
		res.throttled++
		if st.stalls++; st.stalls >= maxConsecutiveThrottles {
			st.abandoned = true
			res.eOther++
			return false
		}
		select {
		case <-ctx.Done():
		case <-time.After(retryAfter(hdr)):
		}
		return false
	case err != nil || status >= 500:
		if status >= 500 {
			res.e5xx++
		} else {
			res.eOther++
		}
		if st.retries++; st.retries >= maxStreamRetries {
			st.abandoned = true
			res.eOther++
			return false
		}
		select {
		case <-ctx.Done():
		case <-time.After(retryBackoff):
		}
		return false
	default:
		// A 4xx other than 429 is a protocol bug; appending around it
		// would corrupt the stream's order.
		res.eOther++
		st.abandoned = true
		return false
	}
}

// pickStream draws one of the client's streams with batches remaining,
// weighted by zipfian popularity; nil when none remain.
func pickStream(rng *rand.Rand, own []*stream, w []float64) *stream {
	total := 0.0
	for i, st := range own {
		if !st.abandoned && st.next < len(st.batches) {
			total += w[i]
		}
	}
	if total == 0 {
		return nil
	}
	x := rng.Float64() * total
	for i, st := range own {
		if st.abandoned || st.next >= len(st.batches) {
			continue
		}
		if x -= w[i]; x <= 0 {
			return st
		}
	}
	for i := len(own) - 1; i >= 0; i-- {
		if !own[i].abandoned && own[i].next < len(own[i].batches) {
			return own[i]
		}
	}
	return nil
}

func allDone(streams []*stream) bool {
	for _, st := range streams {
		if !st.abandoned && st.next < len(st.batches) {
			return false
		}
	}
	return true
}

// scrapeBoundary scrapes every metrics target at a phase boundary and
// condenses the result: total parsed samples, the cumulative
// server-side 5xx count, its increase since the last boundary, and the
// worst convergence lag any backend reports. A target that no longer
// answers — a killed backend — is noted, not fatal.
func (r *Runner) scrapeBoundary(client *http.Client, targets []string) *ScrapeReport {
	rep := &ScrapeReport{}
	var errs []string
	for _, target := range targets {
		samples, err := telemetry.Scrape(client, target)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		rep.Targets++
		rep.Samples += len(samples)
		cur := 0.0
		for _, s := range samples {
			if strings.HasSuffix(s.Name, "_http_requests_total") && strings.HasPrefix(s.Labels["code"], "5") {
				cur += s.Value
			}
			if s.Name == "copydetectd_dataset_convergence_lag_appends" && s.Value > rep.MaxConvergenceLagAppends {
				rep.MaxConvergenceLagAppends = s.Value
			}
		}
		rep.HTTP5xx += cur
		if d := cur - r.prev5xx[target]; d > 0 {
			rep.HTTP5xxDelta += d
		}
		r.prev5xx[target] = cur
	}
	rep.Error = strings.Join(errs, "; ")
	return rep
}

// doJSON runs one JSON request and returns status, headers and body.
func doJSON(ctx context.Context, client *http.Client, method, url string, body any) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// retryAfter converts a 429's Retry-After header into a wait, clamped
// so a misconfigured server cannot stall a run arbitrarily long.
func retryAfter(hdr http.Header) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(strings.TrimSpace(hdr.Get("Retry-After"))); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	return min(d, 10*time.Second)
}
