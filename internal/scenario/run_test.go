package scenario

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copydetect/internal/dataset"
	"copydetect/internal/server"
	"copydetect/internal/telemetry"
)

// newTestTarget wires a registry the way cmd/copydetectd does — handler
// plus /metrics behind the HTTP-metrics middleware — so boundary
// scrapes exercise the real exposition path.
func newTestTarget(t *testing.T) *httptest.Server {
	t.Helper()
	reg := server.NewRegistry(server.Config{})
	t.Cleanup(func() { reg.Close() })
	treg := telemetry.New()
	reg.RegisterMetrics(treg)
	httpMetrics := telemetry.NewHTTPMetrics(treg, "copydetectd", nil)
	mux := http.NewServeMux()
	mux.Handle("/metrics", treg.Handler())
	mux.Handle("/", server.NewHandler(reg))
	srv := httptest.NewServer(httpMetrics.Wrap(mux))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunEndToEnd drives a two-phase scenario — paced with a burst and
// an injection, then unpaced — against an in-process daemon and asserts
// the verdict end to end: phase accounting, the drain contract,
// boundary scrapes, detection quality against the planted cliques, and
// the SLO checks.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak; skipped in -short")
	}
	srv := newTestTarget(t)

	var injMu sync.Mutex
	var injections []string
	r := &Runner{
		Target: srv.URL,
		Injector: InjectorFunc(func(ctx context.Context, step InjectStep) error {
			injMu.Lock()
			defer injMu.Unlock()
			injections = append(injections, step.Action)
			return nil
		}),
		Logf: t.Logf,
	}
	spec := unitSoakSpec()
	v, err := r.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	if v.Scenario != "unit-soak" || v.Datasets != 2 {
		t.Fatalf("verdict header wrong: %+v", v)
	}
	// The two declared phases, then the synthetic drain iff they left
	// batches behind — whether the unpaced flood exhausts the streams in
	// its 400ms is the machine's business, not the contract's.
	names := make([]string, len(v.Phases))
	for i, p := range v.Phases {
		names[i] = p.Name
	}
	if len(v.Phases) < 2 || names[0] != "paced" || names[1] != "flood" {
		t.Fatalf("phases = %v, want [paced flood] and at most a (drain)", names)
	}
	declared := v.Phases[0].Observations + v.Phases[1].Observations
	if remained := declared < v.Observations; remained != (len(v.Phases) == 3) ||
		(remained && names[2] != "(drain)") {
		t.Fatalf("phases = %v with %d of %d observations streamed by the declared two",
			names, declared, v.Observations)
	}
	paced := v.Phases[0]
	if paced.Appends == 0 || paced.Observations == 0 {
		t.Fatalf("paced phase streamed nothing: %+v", paced)
	}
	// Burst-adjusted effective target: 20 * (1 + (2-1)*100/400) = 25.
	if paced.TargetRate != 25 {
		t.Fatalf("burst-adjusted target = %g, want 25", paced.TargetRate)
	}
	if paced.Reads == 0 {
		t.Error("reads=0.25 issued no GET /copies")
	}
	if len(paced.Injected) != 1 {
		t.Fatalf("injections recorded: %v", paced.Injected)
	}
	injMu.Lock()
	gotInj := len(injections)
	injMu.Unlock()
	if gotInj != 1 {
		t.Fatalf("injector called %d times, want 1", gotInj)
	}
	for _, p := range v.Phases {
		if p.Errors5xx != 0 || p.OtherErrors != 0 {
			t.Fatalf("phase %s had errors: %+v", p.Name, p)
		}
		if p.Scrape == nil || p.Scrape.Error != "" || p.Scrape.Samples == 0 {
			t.Fatalf("phase %s boundary scrape: %+v", p.Name, p.Scrape)
		}
	}
	// Drained or not, nothing is left behind: every observation of both
	// complete datasets landed before quiesce.
	total := 0
	for _, p := range v.Phases {
		total += p.Observations
	}
	if total != v.Observations {
		t.Fatalf("streamed %d of %d generated observations", total, v.Observations)
	}
	if v.QuiesceSeconds <= 0 || v.QuiesceErrors != 0 {
		t.Fatalf("quiesce: %gs, %d errors", v.QuiesceSeconds, v.QuiesceErrors)
	}
	if v.Quality == nil {
		t.Fatal("no quality score")
	}
	if v.Quality.Precision < 0.9 || v.Quality.Recall < 0.8 {
		t.Fatalf("quality below the planted-truth gates: %+v", v.Quality)
	}
	if len(v.Quality.PerDataset) != 2 {
		t.Fatalf("per-dataset quality: %+v", v.Quality.PerDataset)
	}
	if len(v.Quality.Algorithms) == 0 {
		t.Error("no detection algorithms recorded")
	}
	if !v.Pass {
		t.Fatalf("verdict failed: %+v", v.Checks)
	}
}

// TestRunSmoke is the -short cousin of TestRunEndToEnd: one small
// dataset, a single sub-second paced phase, drain, quiesce and quality
// scoring against an in-process daemon. It keeps the executor's main
// path exercised (and counted by the coverage floor) in the quick CI
// job; the full-fat soak stays in the non-short run.
func TestRunSmoke(t *testing.T) {
	srv := newTestTarget(t)
	r := &Runner{Target: srv.URL, Logf: t.Logf}
	spec := smokeSpec()
	v, err := r.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !v.Pass {
		t.Fatalf("smoke verdict failed: %+v", v)
	}
	if v.Observations == 0 || v.Phases[len(v.Phases)-1].Name != "(drain)" {
		t.Fatalf("smoke run streamed nothing or skipped the drain: %+v", v.Phases)
	}
	if v.Quality == nil || v.Quality.DetectedPairs == 0 {
		t.Fatalf("smoke run scored no detection quality: %+v", v.Quality)
	}
	for _, p := range v.Phases {
		if p.Scrape == nil || p.Scrape.Error != "" {
			t.Fatalf("phase %s boundary scrape: %+v", p.Name, p.Scrape)
		}
	}
}

// TestRunToExhaustion: a phase without a duration — what copyload's
// flag-driven runs are — paces at its rate, ends when its streams are
// exhausted, is not starved by that, and leaves nothing for a drain.
func TestRunToExhaustion(t *testing.T) {
	srv := newTestTarget(t)
	r := &Runner{Target: srv.URL, Logf: t.Logf}
	spec := exhaustSpec()
	v, err := r.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(v.Phases) != 1 || v.Phases[0].Name != "load" {
		t.Fatalf("phases = %+v, want the one declared phase and no drain", v.Phases)
	}
	p := v.Phases[0]
	if p.Observations != v.Observations || p.Starved || !v.Pass {
		t.Fatalf("phase streamed %d of %d observations, starved=%v, pass=%v",
			p.Observations, v.Observations, p.Starved, v.Pass)
	}
	// n appends need n pacer tokens, the first one at the start.
	if p.Appends < 2 || p.Seconds < float64(p.Appends-1)/exhaustRate {
		t.Fatalf("rate cap violated: %d appends in %.3fs at %d/s", p.Appends, p.Seconds, exhaustRate)
	}
}

// TestTimedPhaseLandsRateTimesDuration: a timed phase of d seconds at r
// batches/s lands r·d appends. The first token is due at the phase's
// start; one due at its deadline would lose to it.
func TestTimedPhaseLandsRateTimesDuration(t *testing.T) {
	var landed atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		landed.Add(1)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer stub.Close()
	st := &stream{name: "s", batches: make([][]dataset.Record, 100)}
	p := &Phase{Name: "timed", Duration: Duration{time.Second}, Rate: 10, Clients: 1}
	rep := (&Runner{Target: stub.URL}).runPhase(context.Background(), stub.Client(), p, []*stream{st}, []float64{1})
	if got := landed.Load(); got != 10 || rep.Appends != 10 {
		t.Fatalf("a 1 s phase at 10/s landed %d appends (reported %d), want 10", got, rep.Appends)
	}
}

// TestRunRejectsInjectWithoutInjector pins the up-front check: a spec
// that injects failures cannot run without an injector to realize them.
func TestRunRejectsInjectWithoutInjector(t *testing.T) {
	s := validSpec()
	s.Phases[0].Inject = []InjectStep{{Action: "kill-backend"}}
	r := &Runner{Target: "http://127.0.0.1:0"}
	if _, err := r.Run(context.Background(), s, nil); err == nil {
		t.Fatal("inject steps without an injector did not error")
	}
}

// TestRunSurfacesServerErrors pins the error path: a target that 500s
// every append produces a failing verdict with the damage tallied, not
// an aborted run.
func TestRunSurfacesServerErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("retry backoffs make this a multi-second test; skipped in -short")
	}
	fail := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPut {
			w.WriteHeader(http.StatusCreated)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer fail.Close()

	s := validSpec()
	s.Datasets[0].Scale = 0.02
	s.Phases[0].Duration = Duration{300 * time.Millisecond}
	s.Phases[0].Rate = 0
	r := &Runner{Target: fail.URL, Logf: t.Logf}
	v, err := r.Run(context.Background(), s, nil)
	if err != nil {
		t.Fatalf("run aborted instead of reporting: %v", err)
	}
	if v.Pass {
		t.Fatal("all-5xx run passed")
	}
	tallied, abandoned := 0, 0
	for _, p := range v.Phases {
		tallied += p.Errors5xx
		abandoned += p.OtherErrors
	}
	if tallied == 0 || abandoned != 1 {
		t.Fatalf("%d 5xx and %d abandoned streams tallied, want some and 1: %+v", tallied, abandoned, v.Phases)
	}
}

// The specs the executor tests run; FuzzParseSpec starts from them too.

func unitSoakSpec() *Spec {
	return &Spec{
		Name: "unit-soak",
		Datasets: []DatasetGroup{
			{Count: 2, Preset: "stock-1day", Scale: 0.02, Seed: 42, Prefix: "unit",
				Churn: &Churn{Waves: 2, LateFraction: 0.25}},
		},
		Zipf:  0.8,
		Batch: 400,
		Phases: []Phase{
			{Name: "paced", Duration: Duration{1200 * time.Millisecond}, Rate: 20, Clients: 2,
				Reads:  0.25,
				Burst:  &Burst{Every: Duration{400 * time.Millisecond}, Length: Duration{100 * time.Millisecond}, Factor: 2},
				Inject: []InjectStep{{At: Duration{200 * time.Millisecond}, Action: "pause-backend"}}},
			{Name: "flood", Duration: Duration{400 * time.Millisecond}, Clients: 2},
		},
		SLO: &SLO{
			P99AppendMillis:   5000,
			Zero5xxDuringKill: true,
			QuiesceSeconds:    120,
			MinPrecision:      0.9,
			MinRecall:         0.8,
			RateTolerance:     0.25, // generous: a 1.2s window is few samples
		},
	}
}

func smokeSpec() *Spec {
	return &Spec{
		Name: "smoke",
		Datasets: []DatasetGroup{
			{Count: 1, Preset: "stock-1day", Scale: 0.01, Seed: 7, Prefix: "smoke",
				Churn: &Churn{Waves: 2, LateFraction: 0.2}},
		},
		Zipf:  0.5,
		Batch: 500,
		Phases: []Phase{
			{Name: "trickle", Duration: Duration{200 * time.Millisecond}, Rate: 10, Clients: 2, Reads: 0.5},
		},
	}
}

const exhaustRate = 200

func exhaustSpec() *Spec {
	return &Spec{
		Name:     "exhaust",
		Datasets: []DatasetGroup{{Preset: "stock-1day", Scale: 0.01, Seed: 3, Prefix: "exhaust"}},
		Batch:    400,
		Phases:   []Phase{{Name: "load", Rate: exhaustRate, Clients: 1}},
	}
}
