package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// DetRange enforces the determinism contract: code that must produce
// bit-identical results for any worker count cannot let map iteration
// order, the shared math/rand source, or the wall clock leak into its
// output.
//
// In deterministic scope (Config.Deterministic plus everything the
// copydetect:deterministic annotation marks) it reports:
//
//   - a range over a map without a copydetect:orderinvariant
//     justification — iteration order is deliberately randomized by the
//     runtime, so any order-sensitive effect differs run to run;
//   - a call to a package-level math/rand function — the global source
//     is shared and unseeded; deterministic code must thread an
//     explicitly seeded *rand.Rand (methods on one are fine);
//   - a time.Now call outside the timer idiom `x := time.Now()` with
//     every use of x inside time.Since(x) or x-relative Sub/duration
//     measurement. Durations only feed Stats, never results.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc:  "map iteration order, global rand, and wall-clock reads in deterministic packages",
	scope: func(p *Pass) bool {
		return slices.Contains(p.Config.Deterministic, p.pkg.Path) || p.Annots.detPkgs[p.pkg] || p.Annots.detFiles[p.file]
	},
	start: func(p *Pass) (func(ast.Node), func()) { return p.checkDet, nil },
}

func (p *Pass) checkDet(n ast.Node) {
	info := p.pkg.Info
	switch n := n.(type) {
	case *ast.RangeStmt:
		if isMapType(info.Types[n.X].Type) && !p.Annots.orderInv[n] {
			p.Report(n.Pos(), "range over map in deterministic code; make the effect order-invariant and annotate with copydetect:orderinvariant <why>, or iterate a sorted slice")
		}
	case *ast.CallExpr:
		fn := calleeFunc(info, n)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if fn.Type().(*types.Signature).Recv() != nil {
				return // method on an explicitly seeded *rand.Rand
			}
			switch fn.Name() {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				return // constructing a seeded source
			}
			p.Report(n.Pos(), "call to %s.%s uses the shared global rand source; deterministic code must use a *rand.Rand seeded from Options.Seed", fn.Pkg().Name(), fn.Name())
		case "time":
			if fn.Name() == "Now" && fn.Type().(*types.Signature).Recv() == nil && !isTimerNow(info, p.parents, n) {
				p.Report(n.Pos(), "time.Now outside the timer idiom (start := time.Now(); ... time.Since(start)) in deterministic code")
			}
		}
	}
}

// isTimerNow reports whether a time.Now call follows the timer idiom:
// its value is bound to a variable whose every use is an argument of
// time.Since or the receiver/operand of a Sub call.
func isTimerNow(info *types.Info, parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	as, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return false
	}
	// Find the LHS bound to this call (n-to-n assignment only; a Now
	// call inside a bigger expression is not the idiom).
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	var obj types.Object
	for i, rhs := range as.Rhs {
		if unparen(rhs) != call {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			return false
		}
		if obj = info.Defs[id]; obj == nil {
			obj = info.Uses[id]
		}
	}
	if obj == nil {
		return false
	}
	// Every other use of the variable must be duration measurement.
	fn := enclosingFunc(parents, call)
	if fn == nil {
		return false
	}
	timer := true
	ast.Inspect(fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.CallExpr:
			// time.Since(id), or end.Sub(id) with id as the operand.
			f := calleeFunc(info, p)
			if isPkgFunc(f, "time", "Since") || (f != nil && f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Sub") {
				return true
			}
		case *ast.SelectorExpr:
			// id.Sub(...) or other.Sub(id): both are pure measurement.
			if p.Sel.Name == "Sub" {
				return true
			}
		case *ast.AssignStmt:
			return true // the binding itself (or a rebind to a new Now)
		}
		timer = false
		return false
	})
	return timer
}

// enclosingFunc walks up the parent chain to the containing function
// body (declaration or literal).
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for n != nil {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return n
		}
		n = parents[n]
	}
	return nil
}
