// Package analysis is the repo's custom static-analysis suite — the
// engine behind `go run ./cmd/copyvet ./...` and the whole-repo
// self-test that makes tier-1 `go test ./...` fail on a contract
// violation.
//
// The runtime tests prove the system's invariants on the code paths
// they exercise; the analyzers here prove them over all code:
//
//   - detrange: deterministic packages must not iterate maps without an
//     order-invariance justification, call the unseeded global
//     math/rand source, or read the wall clock outside timer patterns
//     (bit-identical results for any worker count, PR 1/9).
//   - hotalloc: functions reachable from //copydetect:hotpath roots
//     must not contain allocating constructs (the zero-alloc
//     INCREMENTAL steady state, PR 9).
//   - tracehop: outbound requests in internal/cluster must be built by
//     the trace-propagating helper (X-Copydetect-Trace end-to-end,
//     PR 6).
//   - metriclabel: labeled telemetry metrics take constant label keys
//     and bounded label values (metric cardinality, PR 6).
//   - stickycheck: internal/binio readers and writers have their
//     latched error observed after the last decode/encode.
//
// Everything is stdlib-only: go/parser + go/types over packages
// discovered with `go list` (load.go). The annotation grammar the
// analyzers consume is defined in annot.go, the repo-specific
// configuration in config.go. Run owns the traversal: it walks every
// file once and hands each node to every analyzer that polices the
// file, so an analyzer is its rule and nothing else.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding, positioned for file:line:col
// reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named contract rule.
type Analyzer struct {
	Name string
	Doc  string

	// scope reports whether the rule polices the file the pass is at;
	// nil polices every file.
	scope func(p *Pass) bool
	// start begins one run of the rule. Run applies visit to every node
	// of every policed file in preorder, with the parent links of the
	// whole file already in place, and calls done (if not nil) after the
	// last file.
	start func(p *Pass) (visit func(n ast.Node), done func())
}

// Pass carries one analyzer's run over one program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Config   *Config
	Annots   *Annotations

	// The package and file being walked, and the parent of every node
	// of the program.
	pkg     *Package
	file    *ast.File
	parents map[ast.Node]ast.Node
	diags   *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRange,
		HotAlloc,
		TraceHop,
		MetricLabel,
		StickyCheck,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over prog under cfg and returns
// their findings sorted by position (filename, line, column), so output
// is stable regardless of analyzer or package order. It walks each file
// once, recording every node's parent in one map for the whole program,
// and never fails on a program Load or LoadDir accepted.
func Run(prog *Program, cfg *Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	annots := CollectAnnotations(prog)
	// Malformed or misplaced directives are findings in their own right,
	// whatever analyzer subset was requested.
	diags := append([]Diagnostic(nil), annots.diags...)
	parents := make(map[ast.Node]ast.Node)
	passes := make([]*Pass, len(analyzers))
	visits := make([]func(ast.Node), len(analyzers))
	var dones []func()
	for i, a := range analyzers {
		passes[i] = &Pass{Analyzer: a, Prog: prog, Config: cfg, Annots: annots, parents: parents, diags: &diags}
		var done func()
		visits[i], done = a.start(passes[i])
		if done != nil {
			dones = append(dones, done)
		}
	}
	var nodes, stack []ast.Node
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			nodes = nodes[:0]
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				nodes = append(nodes, n)
				return true
			})
			for i, p := range passes {
				p.pkg, p.file = pkg, file
				if p.Analyzer.scope != nil && !p.Analyzer.scope(p) {
					continue
				}
				for _, n := range nodes {
					visits[i](n)
				}
			}
		}
	}
	for _, done := range dones {
		done()
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
