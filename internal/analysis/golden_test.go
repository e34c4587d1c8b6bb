package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// The fixture universe is loaded once per test binary: one go list walk
// over the module, then each fixture package type-checked on demand
// against the same export data and registered with AddPackage.
var (
	loadOnce   sync.Once
	sharedProg *Program
	loadErr    error

	fixMu    sync.Mutex
	fixtures = map[string]*Package{}
)

func loadShared(t *testing.T) *Program {
	t.Helper()
	loadOnce.Do(func() {
		sharedProg, loadErr = Load(".", "copydetect/...")
	})
	if loadErr != nil {
		t.Fatalf("loading module packages: %v", loadErr)
	}
	return sharedProg
}

// fixturePkg loads testdata/src/<name> (with a relative directory, so
// diagnostic filenames stay repo-relative and golden files are machine
// independent) and registers it with the shared program.
func fixturePkg(t *testing.T, prog *Program, name string) *Package {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if p := fixtures[name]; p != nil {
		return p
	}
	pkg, err := prog.LoadDir(filepath.Join("testdata", "src", name), fixtureImportPath(name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	prog.AddPackage(pkg)
	fixtures[name] = pkg
	return pkg
}

func fixtureImportPath(name string) string {
	return "copydetect/internal/analysis/testdata/" + name
}

// runGolden runs the given analyzers over the shared program plus the
// named fixture and compares the diagnostics that land inside the
// fixture directory against testdata/<name>.golden.
func runGolden(t *testing.T, name string, analyzers []*Analyzer, tweak func(cfg *Config)) {
	t.Helper()
	prog := loadShared(t)
	fixturePkg(t, prog, name)
	cfg := DefaultConfig()
	if tweak != nil {
		tweak(cfg)
	}
	diags, err := Run(prog, cfg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	prefix := filepath.Join("testdata", "src", name) + string(filepath.Separator)
	var got []string
	for _, d := range diags {
		if strings.HasPrefix(d.Pos.Filename, prefix) {
			got = append(got, d.String())
		}
	}
	goldenPath := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if diff := diffLines(want, got); diff != "" {
		t.Errorf("diagnostics differ from %s (re-run with -update after auditing):\n%s", goldenPath, diff)
	}
}

func diffLines(want, got []string) string {
	var b strings.Builder
	seen := make(map[string]int)
	for _, w := range want {
		seen[w]++
	}
	for _, g := range got {
		if seen[g] > 0 {
			seen[g]--
		} else {
			fmt.Fprintf(&b, "+ %s\n", g)
		}
	}
	for _, w := range want {
		for ; seen[w] > 0; seen[w]-- {
			fmt.Fprintf(&b, "- %s\n", w)
		}
	}
	return b.String()
}

func TestDetRangeGolden(t *testing.T) {
	runGolden(t, "detrange", []*Analyzer{DetRange}, nil)
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, "hotalloc", []*Analyzer{HotAlloc}, nil)
}

func TestTraceHopGolden(t *testing.T) {
	runGolden(t, "tracehop", []*Analyzer{TraceHop}, func(cfg *Config) {
		cfg.TracePkgs = []string{fixtureImportPath("tracehop")}
		cfg.TraceHelpers = []string{fixtureImportPath("tracehop") + ".okHelper"}
	})
}

func TestMetricLabelGolden(t *testing.T) {
	runGolden(t, "metriclabel", []*Analyzer{MetricLabel}, nil)
}

func TestStickyCheckGolden(t *testing.T) {
	runGolden(t, "stickycheck", []*Analyzer{StickyCheck}, nil)
}

func TestStickyCheckHandOffGolden(t *testing.T) {
	runGolden(t, "stickyhandoff", []*Analyzer{StickyCheck}, nil)
}

// TestOrderInvariantNeedsJustification pins the annotation-grammar rule
// on its own: a bare copydetect:orderinvariant is itself a finding, and
// the loop it failed to annotate stays flagged.
func TestOrderInvariantNeedsJustification(t *testing.T) {
	prog := loadShared(t)
	fixturePkg(t, prog, "detrange")
	diags, err := Run(prog, DefaultConfig(), []*Analyzer{DetRange})
	if err != nil {
		t.Fatalf("running detrange: %v", err)
	}
	var grammar, loop bool
	for _, d := range diags {
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "testdata/src/detrange/") {
			continue
		}
		if d.Analyzer == "annotation" && strings.Contains(d.Message, "requires a justification") {
			grammar = true
			// The unjustified exemption does not exempt: the range on the
			// line below the directive must still be reported by detrange.
			for _, d2 := range diags {
				if d2.Analyzer == "detrange" && d2.Pos.Filename == d.Pos.Filename && d2.Pos.Line == d.Pos.Line+1 {
					loop = true
				}
			}
		}
	}
	if !grammar {
		t.Error("no annotation diagnostic for copydetect:orderinvariant without a justification")
	}
	if !loop {
		t.Error("unjustified orderinvariant exempted its loop; the range statement should still be flagged")
	}
}
