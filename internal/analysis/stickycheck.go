package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// StickyCheck enforces the binio sticky-error discipline. The codec
// types latch their first error and return zero values forever after,
// which keeps decode loops branch-free — but only if someone eventually
// looks at Err(). errcheck cannot see this: the decode methods return
// plain values, so nothing syntactically "ignores an error".
//
// Per function, for each *binio.Reader / *binio.Writer:
//
//   - a function that CREATES the codec (binio.NewReader/NewWriter),
//     decodes through it, never lets it escape, and never calls Err()
//     has dropped the error on the floor — every decoded value is
//     untrustworthy;
//   - in a function that does call Err(), a decode lexically after the
//     last Err() call (and after the last escape) produces a value no
//     subsequent check covers.
//
// A codec received as a parameter and never Err()-checked is the
// delegation pattern (the caller owns the final check) and is fine.
// The other side of that pattern follows: handing a codec to a call is
// a decode through a delegate, not an escape, so the final check stays
// with the function that holds it.
var StickyCheck = &Analyzer{
	Name: "stickycheck",
	Doc:  "binio sticky-error codecs must have Err observed after the last decode",
	// The codec's own internals manage the latch directly.
	scope: func(p *Pass) bool { return p.pkg.Path != p.Config.BinioPkg },
	start: startStickyCheck,
}

type codecUse struct {
	created    bool
	lastDecode token.Pos
	lastErr    token.Pos
	lastEscape token.Pos
	decodes    int
}

// codecKey is one codec variable as seen by one function declaration
// (a package-level codec is a separate variable in each function).
type codecKey struct {
	fd *ast.FuncDecl
	v  *types.Var
}

func startStickyCheck(p *Pass) (func(ast.Node), func()) {
	uses := make(map[codecKey]*codecUse)
	// record returns obj's record in the function declaration around n,
	// adding one if add is set; nil if obj is not a codec variable.
	record := func(n ast.Node, obj types.Object, add bool) *codecUse {
		v, ok := obj.(*types.Var)
		if !ok || !isBinioCodec(v.Type(), p.Config.BinioPkg) {
			return nil
		}
		k := codecKey{enclosingDecl(p.parents, n), v}
		if uses[k] == nil && add && k.fd != nil {
			uses[k] = &codecUse{}
		}
		return uses[k]
	}
	visit := func(n ast.Node) {
		info := p.pkg.Info
		switch n := n.(type) {
		case *ast.FuncDecl:
			// Parameters (and named results) are tracked as non-created.
			if scope, ok := info.Scopes[n.Type]; ok && n.Body != nil {
				for _, name := range scope.Names() {
					record(n.Body, scope.Lookup(name), true)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if cu := record(n, obj, true); cu != nil {
					cu.created = cu.created || isCodecCtor(info, n.Rhs[i], p.Config.BinioPkg)
				}
			}
		case *ast.Ident:
			cu := record(n, info.Uses[n], false)
			if cu == nil {
				return
			}
			switch parent := p.parents[n].(type) {
			case *ast.SelectorExpr:
				// Receiver of a method call: Err is the check, anything
				// else a decode.
				if call, ok := p.parents[parent].(*ast.CallExpr); ok && parent.X == n && call.Fun == parent {
					if parent.Sel.Name == "Err" {
						cu.lastErr = max(cu.lastErr, n.Pos())
					} else {
						cu.decodes++
						cu.lastDecode = max(cu.lastDecode, n.Pos())
					}
					return
				}
			case *ast.CallExpr:
				// Handed to a delegate that decodes through it: the final
				// Err check stays here.
				cu.decodes++
				cu.lastDecode = max(cu.lastDecode, n.Pos())
				return
			case *ast.AssignStmt:
				if slices.Contains(parent.Lhs, ast.Expr(n)) {
					return // the binding itself is not a use
				}
			}
			cu.lastEscape = max(cu.lastEscape, n.Pos())
		}
	}
	done := func() {
		for _, cu := range uses {
			switch {
			case cu.decodes == 0:
				// Nothing decoded here; nothing to check.
			case cu.lastErr == token.NoPos:
				if cu.created && cu.lastEscape == token.NoPos {
					p.Report(cu.lastDecode, "codec created here is decoded but its sticky Err is never checked; every decoded value may be garbage")
				}
				// Parameter or escaping codec with no Err call: the caller
				// owns the final check (DecodeStats-style delegation).
			case cu.lastDecode > cu.lastErr && cu.lastDecode > cu.lastEscape:
				p.Report(cu.lastDecode, "decode after the last Err check; this value is used with no subsequent sticky-error check")
			}
		}
	}
	return visit, done
}

// isBinioCodec reports whether t is (a pointer to) a named type of the
// binio package.
func isBinioCodec(t types.Type, binioPkg string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == binioPkg &&
		(obj.Name() == "Reader" || obj.Name() == "Writer")
}

// isCodecCtor reports whether e is a call to binio.NewReader/NewWriter.
func isCodecCtor(info *types.Info, e ast.Expr, binioPkg string) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return isPkgFunc(fn, binioPkg, "NewReader") || isPkgFunc(fn, binioPkg, "NewWriter")
}
