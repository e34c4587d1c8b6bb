// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the synthetic stand-ins for its four data
// sets. Each experiment prints a plain-text table shaped like the paper's,
// with the paper's reference values alongside where a direct comparison is
// meaningful. Absolute times differ (Go on modern hardware vs Java on a
// 2011 Core i5); the reproduced claims are the ratios and orderings.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
)

// DatasetIDs enumerates the four workloads in the paper's order.
var DatasetIDs = []string{"book-cs", "stock-1day", "book-full", "stock-2wk"}

// Env carries shared experiment configuration and caches generated
// datasets across experiments.
type Env struct {
	// Scale shrinks the paper-size datasets (1 = full size). The default
	// used by cmd/experiments is 0.2, which keeps the slowest experiment
	// (PAIRWISE on Book-full) tractable on a laptop.
	Scale float64
	// Seed drives dataset generation and sampling.
	Seed int64
	// Params are the model priors (the experiments use n = 100).
	Params bayes.Params
	// Workers shards copy detection over a goroutine pool (0 or 1 =
	// sequential). Every table and figure is identical for any value —
	// parallel detection is deterministic — so Workers only changes the
	// wall-clock columns.
	Workers int
	// Out receives the formatted tables.
	Out io.Writer

	insts      map[string]*Instance
	methodRuns map[string][]methodRun
}

// Instance is a generated dataset with its planted ground truth.
type Instance struct {
	ID      string
	DS      *dataset.Dataset
	Planted *gen.Planted
}

// NewEnv builds an experiment environment.
func NewEnv(out io.Writer, scale float64, seed int64) *Env {
	return &Env{
		Scale:      scale,
		Seed:       seed,
		Params:     bayes.DefaultParams(),
		Out:        out,
		insts:      make(map[string]*Instance),
		methodRuns: make(map[string][]methodRun),
	}
}

// config returns the generator preset for a dataset id at the env's scale.
func (e *Env) config(id string) (gen.Config, error) {
	var cfg gen.Config
	switch id {
	case "book-cs":
		cfg = gen.BookCS(e.Seed)
	case "book-full":
		cfg = gen.BookFull(e.Seed + 1)
	case "stock-1day":
		cfg = gen.Stock1Day(e.Seed + 2)
	case "stock-2wk":
		cfg = gen.Stock2Wk(e.Seed + 3)
	default:
		return cfg, fmt.Errorf("experiments: unknown dataset %q", id)
	}
	return gen.Scale(cfg, e.Scale), nil
}

// Instance generates (once) and returns a dataset by id.
func (e *Env) Instance(id string) (*Instance, error) {
	if inst, ok := e.insts[id]; ok {
		return inst, nil
	}
	cfg, err := e.config(id)
	if err != nil {
		return nil, err
	}
	ds, pl, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	inst := &Instance{ID: id, DS: ds, Planted: pl}
	e.insts[id] = inst
	return inst, nil
}

// itemSampleRate is the paper's per-dataset sampling rate: 1% on
// Stock-2wk, 10% elsewhere.
func itemSampleRate(id string) float64 {
	if id == "stock-2wk" {
		return 0.01
	}
	return 0.1
}

// newTruthFinder builds the iterative driver with the experiment priors.
func (e *Env) newTruthFinder() *fusion.TruthFinder {
	return &fusion.TruthFinder{Params: e.Params, Workers: e.Workers}
}

// opts returns the detector options shared by all experiments.
func (e *Env) opts() core.Options {
	return core.Options{Workers: e.Workers}
}

// rng returns a fresh deterministic random source for a named purpose.
func (e *Env) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed*7919 + salt))
}

// printf writes formatted output to the env writer.
func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

// run executes the full iterative process with a detector on a dataset.
func (e *Env) run(ds *dataset.Dataset, det core.Detector) *fusion.Outcome {
	return e.newTruthFinder().Run(ds, det)
}

// runSampled executes the iterative process with copy detection on a
// sampled dataset and fusion on the full one.
func (e *Env) runSampled(full *dataset.Dataset, sub *dataset.Dataset, itemMap []dataset.ItemID, det core.Detector) *fusion.Outcome {
	tf := e.newTruthFinder()
	tf.DetectDataset = sub
	tf.ItemMap = itemMap
	return tf.Run(full, det)
}
