package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one module package loaded for analysis: its parsed files
// (comments included — the annotation grammar lives there), the
// type-checked types.Package and the types.Info side tables the
// analyzers query.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a set of packages loaded under one token.FileSet, plus the
// export-data index that lets fixture packages be type-checked against
// the same dependency universe.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // module packages, sorted by import path

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load discovers packages with `go list` (run in dir) and type-checks
// every matched module package from source, resolving imports — stdlib
// and in-module alike — from compiler export data. It needs only the go
// toolchain and the standard library: no third-party loader.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, errBuf.String())
	}

	prog := &Program{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	var mod []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			prog.exports[lp.ImportPath] = lp.Export
		}
		if !lp.Standard && lp.Module != nil {
			mod = append(mod, lp)
		}
	}
	sort.Slice(mod, func(i, j int) bool { return mod[i].ImportPath < mod[j].ImportPath })
	for _, lp := range mod {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := prog.check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// LoadDir parses and type-checks a single directory outside the go list
// universe — an analyzer fixture under testdata/ — as the package named
// by importPath. Imports resolve through the same export-data mechanism;
// export data for packages the original Load did not touch is fetched
// lazily with one extra `go list` call.
func (p *Program) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	return p.check(importPath, dir, files)
}

// AddPackage registers an out-of-universe package (a LoadDir fixture)
// so Run analyzes it alongside the module packages.
func (p *Program) AddPackage(pkg *Package) {
	p.Pkgs = append(p.Pkgs, pkg)
}

// check parses the named files and type-checks them as one package.
func (p *Program) check(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(p.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(p.Fset, "gc", p.lookupExport),
	}
	tpkg, err := conf.Check(importPath, p.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// lookupExport opens the export data for an import path, shelling out to
// `go list -export` for paths the initial discovery did not cover.
func (p *Program) lookupExport(path string) (io.ReadCloser, error) {
	p.mu.Lock()
	file, ok := p.exports[path]
	p.mu.Unlock()
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: no export data for %q: %v", path, err)
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		p.mu.Lock()
		p.exports[path] = file
		p.mu.Unlock()
	}
	return os.Open(file)
}
