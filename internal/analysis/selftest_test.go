package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// hotRoots is the inventory of zero-alloc roots, as Config.Deterministic
// is of deterministic packages: hotalloc walks every function declaration
// marked copydetect:hotpath (TestHotAllocGolden), so deleting a mark
// would silently drop that function's proof. TestRepoContracts fails
// instead.
var hotRoots = []string{
	"(*copydetect/internal/core.Incremental).classifyWorker",
	"(*copydetect/internal/core.Incremental).emitWorker",
	"(*copydetect/internal/core.Incremental).passAWorker",
	"(*copydetect/internal/core.Incremental).passWorker",
	"(*copydetect/internal/core.bounds).step",
	"(*copydetect/internal/server.Registry).observeWAL",
	"copydetect/internal/core.exactPair",
	"copydetect/internal/core.scanShard",
	"copydetect/internal/core.sweepShard",
	"copydetect/internal/fusion.normalizeVotes",
	"copydetect/internal/fusion.sourceAccuracy",
	"copydetect/internal/fusion.valueVote",
}

// TestRepoContracts runs the full analyzer suite over every module
// package, so plain tier-1 `go test ./...` fails when a change violates
// a contract the analyzers police — no separate lint invocation needed.
// Fixture packages under testdata/ violate on purpose and are excluded.
func TestRepoContracts(t *testing.T) {
	prog := loadShared(t)
	diags, err := Run(prog, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	var bad []string
	for _, d := range diags {
		if strings.Contains(filepath.ToSlash(d.Pos.Filename), "/testdata/") ||
			strings.HasPrefix(filepath.ToSlash(d.Pos.Filename), "testdata/") {
			continue
		}
		bad = append(bad, d.String())
	}
	if len(bad) > 0 {
		t.Errorf("contract violations (fix the code or annotate with a justification):\n  %s",
			strings.Join(bad, "\n  "))
	}

	hot := CollectAnnotations(prog).hot
	var roots []string
	for _, pkg := range prog.Pkgs {
		if strings.HasPrefix(pkg.Path, fixtureImportPath("")) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && hot[fd] {
					roots = append(roots, pkg.Info.Defs[fd.Name].(*types.Func).FullName())
				}
			}
		}
	}
	slices.Sort(roots)
	if !slices.Equal(roots, hotRoots) {
		t.Errorf("hot roots differ from the inventory (restore the copydetect:hotpath mark, or update hotRoots with the reason):\n  got  %v\n  want %v", roots, hotRoots)
	}
}
