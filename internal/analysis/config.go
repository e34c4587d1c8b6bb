package analysis

// Config points the analyzers at the packages and helpers they police.
// The defaults encode this repo's contracts; golden tests substitute
// fixture package paths to exercise each analyzer in isolation.
type Config struct {
	// Deterministic lists import paths under the determinism contract
	// even without a copydetect:deterministic annotation. detrange
	// checks the union of this list and the annotated set, so deleting
	// an annotation cannot silently shrink coverage.
	Deterministic []string

	// TracePkgs lists packages whose outbound HTTP requests must be
	// built by one of TraceHelpers (full function names as reported by
	// types.Func.FullName). Requests constructed inside a helper itself
	// are exempt.
	TracePkgs    []string
	TraceHelpers []string

	// TelemetryPkg is the metrics package; Normalizers are the
	// bounded-cardinality value producers whose results metriclabel
	// accepts as dynamic label values.
	TelemetryPkg string
	Normalizers  []string

	// BinioPkg is the sticky-error codec package stickycheck watches.
	BinioPkg string

	// HotAllocAllow lists call-name prefixes (types.Func.FullName)
	// hotalloc will not follow or flag even though their bodies are out
	// of reach — pure math helpers known not to allocate.
	HotAllocAllow []string
}

// DefaultConfig returns the repository contract wiring.
func DefaultConfig() *Config {
	return &Config{
		Deterministic: []string{
			"copydetect/internal/core",
			"copydetect/internal/index",
			"copydetect/internal/bayes",
			"copydetect/internal/fusion",
			"copydetect/internal/dataset",
			"copydetect/internal/wal",
			"copydetect/internal/binio",
		},
		TracePkgs: []string{"copydetect/internal/cluster"},
		TraceHelpers: []string{
			"copydetect/internal/cluster.newTracedRequest",
		},
		TelemetryPkg: "copydetect/internal/telemetry",
		Normalizers: []string{
			"copydetect/internal/telemetry.NormalizeRoute",
			"copydetect/internal/telemetry.NormalizeMethod",
			"copydetect/internal/telemetry.statusClass",
			"copydetect/internal/telemetry.itoa",
		},
		BinioPkg: "copydetect/internal/binio",
		HotAllocAllow: []string{
			"math.",
			"math/bits.",
			// Pure arithmetic on a time.Duration value.
			"(time.Duration).",
			// Atomic loads/stores move pointers, never allocate.
			"(*sync/atomic.",
			"(sync/atomic.",
		},
	}
}
