package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// The annotation grammar. Annotations are directive comments (no space
// after the slashes, like go:build), so prose that merely mentions one
// never parses as one:
//
//	copydetect:deterministic
//	    In a package doc comment: every file of the package is under
//	    the determinism contract. In any other comment of a file: that
//	    file alone is.
//
//	copydetect:hotpath
//	    On a function declaration: the function is a zero-alloc root;
//	    hotalloc walks the static call graph from it.
//
//	copydetect:orderinvariant <justification>
//	    On a range-over-map statement inside deterministic code: the
//	    loop is exempt from detrange because its effect does not depend
//	    on iteration order. The justification is mandatory — an
//	    exemption nobody can audit is a contract hole, and the missing
//	    text is itself reported as a diagnostic.
const directivePrefix = "//copydetect:"

// Annotations is the parsed annotation state of a Program, plus the
// diagnostics for malformed or misplaced directives (always reported,
// whichever analyzers run). An exemption with an empty justification is
// not in orderInv: it is already in the diagnostics.
type Annotations struct {
	detPkgs  map[*Package]bool
	detFiles map[*ast.File]bool
	hot      map[*ast.FuncDecl]bool
	orderInv map[*ast.RangeStmt]bool
	diags    []Diagnostic
}

// CollectAnnotations parses every directive comment in the program.
func CollectAnnotations(prog *Program) *Annotations {
	a := &Annotations{
		detPkgs:  make(map[*Package]bool),
		detFiles: make(map[*ast.File]bool),
		hot:      make(map[*ast.FuncDecl]bool),
		orderInv: make(map[*ast.RangeStmt]bool),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			// Invert the comment map: comment group -> owning node.
			cm := ast.NewCommentMap(prog.Fset, file, file.Comments)
			owner := make(map[*ast.CommentGroup]ast.Node)
			for node, groups := range cm {
				for _, g := range groups {
					owner[g] = node
				}
			}
			for _, group := range file.Comments {
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					verb, rest, _ := strings.Cut(strings.TrimPrefix(c.Text, directivePrefix), " ")
					report := func(format string, args ...any) {
						a.diags = append(a.diags, Diagnostic{
							Pos:      prog.Fset.Position(c.Pos()),
							Analyzer: "annotation",
							Message:  fmt.Sprintf(format, args...),
						})
					}
					switch verb {
					case "deterministic":
						if group == file.Doc {
							a.detPkgs[pkg] = true
						} else {
							a.detFiles[file] = true
						}
					case "hotpath":
						fd, ok := owner[group].(*ast.FuncDecl)
						if !ok {
							report("copydetect:hotpath must annotate a function declaration")
							continue
						}
						a.hot[fd] = true
					case "orderinvariant":
						rs, ok := owner[group].(*ast.RangeStmt)
						if !ok {
							report("copydetect:orderinvariant must annotate a range statement")
							continue
						}
						if strings.TrimSpace(rest) == "" {
							report("copydetect:orderinvariant requires a justification (why is this loop's effect independent of iteration order?)")
							continue
						}
						a.orderInv[rs] = true
					default:
						report("unknown copydetect directive %q", verb)
					}
				}
			}
		}
	}
	return a
}
