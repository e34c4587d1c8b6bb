package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the static callee of a call expression: a
// package-level function, a method, or a generic instantiation of
// either. Dynamic calls (function values, builtins, conversions)
// resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := unparen(call.Fun)
	switch fn := fn.(type) {
	case *ast.IndexExpr:
		if id, ok := unparen(fn.X).(*ast.Ident); ok {
			f, _ := info.Uses[id].(*types.Func)
			return f
		}
	case *ast.IndexListExpr:
		if id, ok := unparen(fn.X).(*ast.Ident); ok {
			f, _ := info.Uses[id].(*types.Func)
			return f
		}
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether f is the package-level function pkgPath.name.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath &&
		f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// enclosingDecl returns the function declaration n is inside, or nil.
func enclosingDecl(parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncDecl {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		if fd, ok := cur.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// unparen strips any levels of parentheses (ast.Unparen needs go1.22;
// go.mod is 1.21).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
