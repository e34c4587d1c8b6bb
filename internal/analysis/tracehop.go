package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// TraceHop keeps X-Copydetect-Trace alive across every hop. The e2e
// tests prove the trace survives the proxy path they drive; this
// analyzer proves no outbound request can be built without it: inside
// Config.TracePkgs, every construction of an *http.Request —
// http.NewRequest, http.NewRequestWithContext, or a raw &http.Request
// literal — must happen inside one of the Config.TraceHelpers
// functions, which own the header-propagation logic. A new fan-out,
// probe, or mirror hop added with a bare http.NewRequestWithContext is
// a diagnostic, not a silent trace hole.
var TraceHop = &Analyzer{
	Name:  "tracehop",
	Doc:   "outbound http.Requests in cluster code must be built by the trace-propagating helper",
	scope: func(p *Pass) bool { return slices.Contains(p.Config.TracePkgs, p.pkg.Path) },
	start: func(p *Pass) (func(ast.Node), func()) { return p.checkTrace, nil },
}

func (p *Pass) checkTrace(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(p.pkg.Info, n); fn != nil && isRequestCtor(fn) && !p.inTraceHelper(n) {
			p.Report(n.Pos(), "outbound request built with %s outside a trace helper; use newTracedRequest so X-Copydetect-Trace propagates", fn.Name())
		}
	case *ast.CompositeLit:
		if t := p.pkg.Info.Types[n].Type; t != nil && isHTTPRequest(t) && !p.inTraceHelper(n) {
			p.Report(n.Pos(), "http.Request literal outside a trace helper; use newTracedRequest so X-Copydetect-Trace propagates")
		}
	}
}

// isRequestCtor matches net/http's request constructors.
func isRequestCtor(fn *types.Func) bool {
	return (isPkgFunc(fn, "net/http", "NewRequest") || isPkgFunc(fn, "net/http", "NewRequestWithContext"))
}

// isHTTPRequest reports whether t is net/http.Request.
func isHTTPRequest(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// inTraceHelper reports whether n is inside one of the allowlisted
// trace helpers.
func (p *Pass) inTraceHelper(n ast.Node) bool {
	fd := enclosingDecl(p.parents, n)
	if fd == nil {
		return false
	}
	fn, ok := p.pkg.Info.Defs[fd.Name].(*types.Func)
	return ok && slices.Contains(p.Config.TraceHelpers, fn.FullName())
}
