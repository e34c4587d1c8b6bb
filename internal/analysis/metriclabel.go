package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// MetricLabel bounds metric cardinality statically. The telemetry
// registry interns one child per label tuple forever, so an unbounded
// label value — a raw request method, a dataset name, a URL — is a
// slow memory leak and a scrape-size explosion in production.
//
// Two rules over users of Config.TelemetryPkg:
//
//   - label KEYS at family registration (CounterVec, HistogramVec, and
//     the labels slice of GaugeFunc/CounterFunc) must be string
//     constants;
//   - label VALUES passed to Vec.With must be provably bounded: a
//     constant, a call to one of Config.Normalizers (the
//     bounded-cardinality value producers), or a variable whose every
//     assignment is itself bounded.
//
// GaugeFunc/CounterFunc emit callbacks run at scrape time over
// registry-owned state and are exempt from the value rule.
var MetricLabel = &Analyzer{
	Name:  "metriclabel",
	Doc:   "constant metric label keys; bounded label values through the normalizers",
	start: func(p *Pass) (func(ast.Node), func()) { return p.checkLabels, nil },
}

func (p *Pass) checkLabels(n ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(p.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != p.Config.TelemetryPkg {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return
	}
	switch fn.Name() {
	case "CounterVec", "HistogramVec":
		p.checkLabelKeys(call, sig)
	case "GaugeFunc", "CounterFunc":
		p.checkLabelSlice(call)
	case "With":
		p.checkLabelValues(call)
	}
}

// checkLabelKeys verifies the variadic label-key tail of a Vec
// registration is all string constants.
func (p *Pass) checkLabelKeys(call *ast.CallExpr, sig *types.Signature) {
	fixed := sig.Params().Len() - 1 // index of the variadic labels param
	if call.Ellipsis.IsValid() {
		p.Report(call.Pos(), "label keys passed as a slice cannot be verified constant; spell them out at the registration site")
		return
	}
	for i := fixed; i < len(call.Args); i++ {
		if p.pkg.Info.Types[call.Args[i]].Value == nil {
			p.Report(call.Args[i].Pos(), "metric label key must be a string constant")
		}
	}
}

// checkLabelSlice verifies the []string labels argument of a Func
// collector registration is nil or a literal of constants.
func (p *Pass) checkLabelSlice(call *ast.CallExpr) {
	if len(call.Args) < 3 {
		return
	}
	arg := unparen(call.Args[2])
	if id, ok := arg.(*ast.Ident); ok && id.Name == "nil" {
		return
	}
	lit, ok := arg.(*ast.CompositeLit)
	if !ok {
		p.Report(arg.Pos(), "labels of a Func collector must be a nil or literal []string of constants")
		return
	}
	for _, elt := range lit.Elts {
		if p.pkg.Info.Types[elt].Value == nil {
			p.Report(elt.Pos(), "metric label key must be a string constant")
		}
	}
}

// checkLabelValues verifies every Vec.With argument is bounded.
func (p *Pass) checkLabelValues(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if p.boundedValue(arg, 4) {
			continue
		}
		short := make([]string, len(p.Config.Normalizers))
		for i, name := range p.Config.Normalizers {
			short[i] = name[strings.LastIndex(name, ".")+1:]
		}
		p.Report(arg.Pos(), "label value %s is not provably bounded; pass a constant or route it through a bounded normalizer (%s)",
			types.ExprString(arg), strings.Join(short, ", "))
	}
}

// boundedValue reports whether e can only ever evaluate to a bounded
// set of strings: a constant, a normalizer call, or a variable whose
// assignments are all bounded.
func (p *Pass) boundedValue(e ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	info := p.pkg.Info
	e = unparen(e)
	if info.Types[e].Value != nil {
		return true
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		return fn != nil && slices.Contains(p.Config.Normalizers, fn.FullName())
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return false
		}
		if _, ok := obj.(*types.Const); ok {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return p.boundedVar(v, depth-1)
	}
	return false
}

// boundedVar scans the file for every assignment to v and requires each
// bound value to be bounded. A variable with no visible assignment (a
// parameter, a field) is unbounded.
func (p *Pass) boundedVar(v *types.Var, depth int) bool {
	info := p.pkg.Info
	found, bounded := false, true
	ast.Inspect(p.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value assignment from a call: opaque.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && identIs(info, id, v) {
						found, bounded = true, false
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !identIs(info, id, v) {
					continue
				}
				found = true
				if !p.boundedValue(n.Rhs[i], depth) {
					bounded = false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if !identIs(info, name, v) {
					continue
				}
				found = true
				if i >= len(n.Values) || !p.boundedValue(n.Values[i], depth) {
					bounded = false
				}
			}
		case *ast.RangeStmt:
			for _, x := range []ast.Expr{n.Key, n.Value} {
				if id, ok := x.(*ast.Ident); ok && identIs(info, id, v) {
					found, bounded = true, false
				}
			}
		}
		return true
	})
	return found && bounded
}

func identIs(info *types.Info, id *ast.Ident, v *types.Var) bool {
	return info.Defs[id] == v || info.Uses[id] == v
}
