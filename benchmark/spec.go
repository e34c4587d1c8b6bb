package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"copydetect/internal/gen"
)

// manifest is BENCHMARK.json: the one place metric names, units,
// directions, bounds and workload names are written down. The benchmark
// reads it instead of repeating it, and refuses to report a result that
// lacks one of its metrics.
type manifest struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []namedWhy  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// genSpec names a generated dataset: a paper preset shrunk by scale
// (smoke replaces scale in -smoke runs).
type genSpec struct {
	preset string // "book-cs", "stock-1day" or "stock-2wk"
	scale  float64
	smoke  float64
}

func (g genSpec) config(seed int64, smoke bool) gen.Config {
	var cfg gen.Config
	switch g.preset {
	case "book-cs":
		cfg = gen.BookCS(seed)
	case "stock-1day":
		cfg = gen.Stock1Day(seed)
	case "stock-2wk":
		cfg = gen.Stock2Wk(seed)
	default:
		panic("benchmark: unknown preset " + g.preset)
	}
	if smoke {
		return gen.Scale(cfg, g.smoke)
	}
	return gen.Scale(cfg, g.scale)
}

// workload is one row of the README's workload table. Every workload
// runs the same life cycle — library calls on the batch dataset, then a
// daemon fed the serve datasets: bulk ingest, drain, restart, refresh
// ops beside an open-loop reader — because every end-to-end metric is
// reported for every workload. What differs is where a lap's time goes:
// the batch-* workloads load and detect on a dataset at the paper's
// size (Book-CS) or a quarter of it (Stock-1day) and serve a small one
// of the same shape; the stream-* workloads keep the batch dataset
// small and differ in how the serve datasets are fed.
type workload struct {
	name  string
	batch genSpec // the batch cycle's dataset
	// serve is the shape of each serve dataset; dataset i is generated
	// with structure seed 1+i.
	serve       genSpec
	datasets    int
	ingestBatch int // records per bulk append
}

// The refresh traffic is the same in every workload. Each lap runs
// refreshOps refresh ops, dealt round-robin over the serve datasets; an
// op appends refreshBatch held-back records and waits for the round
// that covers them, while readRate open-loop polls (copies + truth) a
// second hit the first dataset.
const (
	refreshBatch = 50
	refreshOps   = 8
	readRate     = 100.0
)

var (
	bookSmall  = genSpec{"book-cs", 0.5, 0.15}
	stockSmall = genSpec{"stock-1day", 0.07, 0.01}
	stockMid   = genSpec{"stock-1day", 0.15, 0.02}
)

var workloads = []workload{
	{name: "batch-book-cs", batch: genSpec{"book-cs", 1, 0.15}, serve: bookSmall, datasets: 1, ingestBatch: 500},
	{name: "batch-stock-1day", batch: genSpec{"stock-1day", 0.25, 0.02}, serve: stockSmall, datasets: 1, ingestBatch: 500},
	{name: "stream-ingest", batch: stockSmall, serve: stockSmall, datasets: 2, ingestBatch: 250},
	{name: "stream-refresh", batch: stockMid, serve: stockMid, datasets: 1, ingestBatch: 5000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
