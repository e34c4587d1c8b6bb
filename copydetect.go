package copydetect

import (
	"fmt"
	"io"
	"math/rand"

	"copydetect/internal/bayes"
	"copydetect/internal/core"
	"copydetect/internal/dataset"
	"copydetect/internal/depgraph"
	"copydetect/internal/fusion"
	"copydetect/internal/gen"
	"copydetect/internal/metrics"
	"copydetect/internal/sample"
)

// Core data model (see internal/dataset).
type (
	// Dataset is an immutable collection of observations: which source
	// provides which value on which data item.
	Dataset = dataset.Dataset
	// Builder assembles a Dataset from named observations.
	Builder = dataset.Builder
	// SourceID, ItemID and ValueID are dense identifiers.
	SourceID = dataset.SourceID
	ItemID   = dataset.ItemID
	ValueID  = dataset.ValueID
	// DatasetStats summarizes a dataset (Table V style).
	DatasetStats = dataset.Stats
)

// NoValue marks a missing value or unknown truth.
const NoValue = dataset.NoValue

// Statistical model (see internal/bayes).
type (
	// Params holds the copying-model priors α, s and n.
	Params = bayes.Params
	// State carries value probabilities and source accuracies.
	State = bayes.State
)

// Detection (see internal/core).
type (
	// Detector runs one round of copy detection.
	Detector = core.Detector
	// Result is one round's outcome; PairResult one pair's.
	Result     = core.Result
	PairResult = core.PairResult
	// Stats counts computations and time.
	Stats = core.Stats
	// Options tunes the index-driven detectors.
	Options = core.Options
)

// Fusion (see internal/fusion).
type (
	// TruthFinder drives the iterative copy-detection / truth-finding
	// process.
	TruthFinder = fusion.TruthFinder
	// Outcome is the result of a full iterative run.
	Outcome = fusion.Outcome
)

// Generation and evaluation.
type (
	// GenConfig parameterizes the synthetic workload generator.
	GenConfig = gen.Config
	// CopyGroup plants one copier clique in a generated workload.
	CopyGroup = gen.CopyGroup
	// Planted is the generator's ground truth.
	Planted = gen.Planted
	// SampleResult is a sampled dataset plus its item mapping.
	SampleResult = sample.Result
	// PRF holds precision/recall/F-measure.
	PRF = metrics.PRF
)

// Dependency-graph analysis (see internal/depgraph).
type (
	// CopyGraph separates direct copying from co-/transitive copying and
	// recovers copier communities.
	CopyGraph = depgraph.Graph
	// CopyEdge is one copying relationship in a CopyGraph.
	CopyEdge = depgraph.Edge
)

// AnalyzeCopying post-processes a detection result into a dependency
// graph, classifying each copying pair as direct or explained by the
// stronger relationships around it (the footnote-3 extension).
func AnalyzeCopying(res *Result) *CopyGraph { return depgraph.Analyze(res) }

// ValuePopularities computes the empirical per-value false popularities
// used by the footnote-2 relaxation (see TruthFinder.UseValueDist).
func ValuePopularities(ds *Dataset) [][]float64 { return dataset.ValuePopularities(ds) }

// NewBuilder returns an empty dataset builder.
func NewBuilder() *Builder { return dataset.NewBuilder() }

// DefaultParams returns α=0.1, s=0.8, n=100 — the paper's experimental
// configuration.
func DefaultParams() Params { return bayes.DefaultParams() }

// Summarize computes dataset statistics.
func Summarize(ds *Dataset) DatasetStats { return dataset.Summarize(ds) }

// ReadJSON / WriteJSON / ReadCSV / WriteCSV (de)serialize datasets.
func ReadJSON(r io.Reader) (*Dataset, error)   { return dataset.ReadJSON(r) }
func WriteJSON(w io.Writer, ds *Dataset) error { return dataset.WriteJSON(w, ds) }
func ReadCSV(r io.Reader) (*Dataset, error)    { return dataset.ReadCSV(r) }
func WriteCSV(w io.Writer, ds *Dataset) error  { return dataset.WriteCSV(w, ds) }

// Algorithm selects a copy-detection algorithm.
type Algorithm int

const (
	// AlgorithmPairwise is the exhaustive baseline of Section II-B.
	AlgorithmPairwise Algorithm = iota
	// AlgorithmIndex is the inverted-index algorithm of Section III.
	AlgorithmIndex
	// AlgorithmBound adds early termination (Section IV-A).
	AlgorithmBound
	// AlgorithmBoundPlus adds lazy bound recomputation (Section IV-B).
	AlgorithmBoundPlus
	// AlgorithmHybrid combines Index and BoundPlus (Section IV end).
	AlgorithmHybrid
	// AlgorithmIncremental refines decisions across rounds (Section V).
	AlgorithmIncremental
)

func (a Algorithm) String() string {
	switch a {
	case AlgorithmPairwise:
		return "PAIRWISE"
	case AlgorithmIndex:
		return "INDEX"
	case AlgorithmBound:
		return "BOUND"
	case AlgorithmBoundPlus:
		return "BOUND+"
	case AlgorithmHybrid:
		return "HYBRID"
	case AlgorithmIncremental:
		return "INCREMENTAL"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// NewDetector builds a detector for an algorithm with the given priors and
// options (Options{} is a sensible default).
func NewDetector(a Algorithm, p Params, opts Options) Detector {
	switch a {
	case AlgorithmPairwise:
		return &core.Pairwise{Params: p, Workers: opts.Workers}
	case AlgorithmIndex:
		return &core.Index{Params: p, Opts: opts}
	case AlgorithmBound:
		return &core.Bound{Params: p, Opts: opts}
	case AlgorithmBoundPlus:
		return &core.BoundPlus{Params: p, Opts: opts}
	case AlgorithmHybrid:
		return &core.Hybrid{Params: p, Opts: opts}
	case AlgorithmIncremental:
		return &core.Incremental{Params: p, Opts: opts}
	default:
		panic(fmt.Sprintf("copydetect: unknown algorithm %d", int(a)))
	}
}

// Detect runs the full iterative copy-detection and truth-finding process
// on ds with the chosen algorithm and default driver settings.
func Detect(ds *Dataset, a Algorithm, p Params) *Outcome {
	return DetectWithOptions(ds, a, p, Options{})
}

// DetectWithOptions is Detect with explicit detector options — most
// usefully Options{Workers: N}, which shards detection over N goroutines
// for every algorithm in the family. Results are bit-identical to the
// sequential run for any worker count; see Options.Workers.
func DetectWithOptions(ds *Dataset, a Algorithm, p Params, opts Options) *Outcome {
	tf := &TruthFinder{Params: p, Workers: opts.Workers}
	return tf.Run(ds, NewDetector(a, p, opts))
}

// DetectSampled runs the iterative process with copy detection restricted
// to a sampled dataset (see ScaleSample) while truth finding uses the full
// dataset — the paper's SCALESAMPLE configuration when combined with
// AlgorithmIncremental.
func DetectSampled(ds *Dataset, s SampleResult, a Algorithm, p Params) *Outcome {
	return DetectSampledWithOptions(ds, s, a, p, Options{})
}

// DetectSampledWithOptions is DetectSampled with explicit detector
// options, e.g. Options{Workers: N} for parallel detection.
func DetectSampledWithOptions(ds *Dataset, s SampleResult, a Algorithm, p Params, opts Options) *Outcome {
	tf := &TruthFinder{Params: p, Workers: opts.Workers, DetectDataset: s.Dataset, ItemMap: s.ItemMap}
	return tf.Run(ds, NewDetector(a, p, opts))
}

// ScaleSample draws the paper's coverage-aware sample: rate·|items| random
// items, topped up so every source keeps at least minPerSource of its own
// items (the paper uses 4).
func ScaleSample(ds *Dataset, rate float64, minPerSource int, seed int64) SampleResult {
	return sample.ScaleSample(ds, rate, minPerSource, rand.New(rand.NewSource(seed)))
}

// SampleByItem and SampleByCell are the naive strategies the paper
// compares against.
func SampleByItem(ds *Dataset, rate float64, seed int64) SampleResult {
	return sample.ByItem(ds, rate, rand.New(rand.NewSource(seed)))
}

func SampleByCell(ds *Dataset, cellRate float64, seed int64) SampleResult {
	return sample.ByCell(ds, cellRate, rand.New(rand.NewSource(seed)))
}

// Generate materializes a synthetic workload; BookCSConfig and friends
// return the presets matching the paper's four datasets, and ScaleConfig
// shrinks them.
func Generate(cfg GenConfig) (*Dataset, *Planted, error) { return gen.Generate(cfg) }

func BookCSConfig(seed int64) GenConfig    { return gen.BookCS(seed) }
func BookFullConfig(seed int64) GenConfig  { return gen.BookFull(seed) }
func Stock1DayConfig(seed int64) GenConfig { return gen.Stock1Day(seed) }
func Stock2WkConfig(seed int64) GenConfig  { return gen.Stock2Wk(seed) }
func ScaleConfig(cfg GenConfig, f float64) GenConfig {
	return gen.Scale(cfg, f)
}

// MotivatingExample returns the paper's Table I dataset and its source
// accuracies — handy for experimentation and tests.
func MotivatingExample() (*Dataset, []float64) { return dataset.Motivating() }

// ComparePairs scores one detection result against another (the paper
// compares everything to PAIRWISE).
func ComparePairs(test, ref *Result) PRF { return metrics.CopyPRF(test, ref) }

// FusionAccuracy, FusionDifference and AccuracyVariance are the
// truth-discovery quality measures of Section VI-A.
func FusionAccuracy(ds *Dataset, decided []ValueID) (float64, int) {
	return metrics.FusionAccuracy(ds, decided)
}

func FusionDifference(a, b []ValueID) float64 { return metrics.FusionDifference(a, b) }

func AccuracyVariance(a, b []float64) float64 { return metrics.AccuracyVariance(a, b) }
