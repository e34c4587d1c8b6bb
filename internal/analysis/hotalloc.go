package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// HotAlloc proves the zero-alloc contract statically: every function
// transitively reachable from a copydetect:hotpath root must be free of
// allocating constructs. TestIncrementalSteadyStateAllocs counts a
// round's allocations (its Result and Pairs, none in the passes) for the
// code path one input drives; this analyzer proves the passes' share for
// every path through the hot call graph, so a refactor cannot quietly
// reintroduce an allocation that input never reaches.
//
// Flagged inside hot code: make/new, append into a slice without a
// same-function capacity reset (x = buf[:0]), slice/map composite
// literals, &T{...}, stores into map elements, nested function literals,
// go statements, string concatenation, string<->[]byte conversions, and
// implicit interface conversions (boxing) at calls, assignments, var
// declarations, returns, and composite fields. Calls are followed into
// every function whose body was loaded; calls out of the module are
// rejected unless Config.HotAllocAllow vouches for them, and dynamic
// calls (function values, interface methods) are rejected outright — an
// unseen body cannot be proven allocation-free.
var HotAlloc = &Analyzer{
	Name:  "hotalloc",
	Doc:   "allocating constructs reachable from copydetect:hotpath roots",
	start: startHotAlloc,
}

// startHotAlloc indexes every function declaration during the walk and
// checks what the roots reach after it.
func startHotAlloc(p *Pass) (func(ast.Node), func()) {
	hc := &hotChecker{
		pass:    p,
		decls:   make(map[string]declSite),
		visited: make(map[string]bool),
	}
	var roots []*types.Func
	visit := func(n ast.Node) {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return
		}
		if fn, ok := p.pkg.Info.Defs[fd.Name].(*types.Func); ok {
			// Keyed by FullName: cross-package references resolve
			// through gc export data, so the *types.Func a caller
			// sees is not the same object the defining package's
			// source check produced.
			hc.decls[fn.FullName()] = declSite{pkg: p.pkg, decl: fd}
			if p.Annots.hot[fd] {
				roots = append(roots, fn)
			}
		}
	}
	done := func() {
		for _, fn := range roots {
			hc.walk(fn.FullName(), fn.Name())
		}
	}
	return visit, done
}

type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

type hotChecker struct {
	pass    *Pass
	decls   map[string]declSite
	visited map[string]bool
}

// walk checks the body of the function named full once, charging what
// it finds to root, the annotated entry point named in diagnostics.
func (hc *hotChecker) walk(full, root string) {
	if hc.visited[full] {
		return
	}
	hc.visited[full] = true
	site := hc.decls[full]
	pkg, fd := site.pkg, site.decl
	info := pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			hc.report(n.Pos(), root, "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			hc.report(n.Pos(), root, "go statement allocates a goroutine")
			return false
		case *ast.CompositeLit:
			hc.checkComposite(pkg, n, root)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(info.Types[n].Type) && info.Types[n].Value == nil {
				hc.report(n.Pos(), root, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			hc.checkAssign(pkg, n, root)
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == len(n.Names) {
				for _, v := range n.Values {
					hc.checkBoxingTo(pkg, v, info.TypeOf(n.Type), root, "assignment")
				}
			}
		case *ast.ReturnStmt:
			hc.checkReturnBoxing(pkg, n, root)
		case *ast.CallExpr:
			hc.checkCall(pkg, fd, n, root)
		}
		return true
	})
}

func (hc *hotChecker) report(pos token.Pos, root, format string, args ...any) {
	hc.pass.Report(pos, "hot path (reachable from %s): "+format, append([]any{root}, args...)...)
}

func (hc *hotChecker) checkCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, root string) {
	info := pkg.Info

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				hc.report(call.Pos(), root, "make allocates")
			case "new":
				hc.report(call.Pos(), root, "new allocates")
			case "append":
				if !hc.appendReusesCapacity(pkg, fd, call) {
					hc.report(call.Pos(), root, "append may grow its backing array; reset the slice with x = buf[:0] in this function to reuse capacity")
				}
			}
			return
		}
	}

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		hc.checkConversion(pkg, call, tv.Type, root)
		return
	}

	// Static callee?
	callee := calleeFunc(info, call)
	if callee == nil {
		hc.report(call.Pos(), root, "call through a function value cannot be proven allocation-free")
		return
	}
	callee = callee.Origin()
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if _, ok := recv.Type().Underlying().(*types.Interface); ok {
			hc.report(call.Pos(), root, "dynamic call through interface method %s cannot be proven allocation-free", callee.Name())
			return
		}
	}
	hc.checkCallBoxing(pkg, call, sig, root)

	full := callee.FullName()
	if _, ok := hc.decls[full]; ok {
		hc.walk(full, root)
		return
	}
	allowed := slices.ContainsFunc(hc.pass.Config.HotAllocAllow, func(prefix string) bool { return strings.HasPrefix(full, prefix) })
	if !allowed {
		hc.report(call.Pos(), root, "call to %s: body outside analysis scope and not allowlisted in HotAllocAllow", full)
	}
}

// appendReusesCapacity reports whether the slice being appended to has a
// capacity-reuse reset (x = buf[:0] / x := buf[:0]) somewhere in the
// same function — the repo's scratch-buffer idiom, which never grows in
// steady state.
func (hc *hotChecker) appendReusesCapacity(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	reset := false
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || reset {
			return !reset
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			if o := pkg.Info.Defs[lid]; o == nil || o != obj {
				if o2 := pkg.Info.Uses[lid]; o2 == nil || o2 != obj {
					continue
				}
			}
			if isZeroSlice(pkg.Info, as.Rhs[i]) {
				reset = true
			}
		}
		return true
	})
	return reset
}

// isZeroSlice matches expr[:0] (any base expression, constant high
// bound zero).
func isZeroSlice(info *types.Info, e ast.Expr) bool {
	se, ok := unparen(e).(*ast.SliceExpr)
	if !ok || se.Slice3 || se.Low != nil || se.High == nil {
		return false
	}
	tv := info.Types[se.High]
	return tv.Value != nil && tv.Value.String() == "0"
}

func (hc *hotChecker) checkConversion(pkg *Package, call *ast.CallExpr, target types.Type, root string) {
	if len(call.Args) != 1 {
		return
	}
	src := pkg.Info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if isInterface(target) && !isInterface(src) && !isUntypedNil(src) {
		hc.report(call.Pos(), root, "conversion to interface type %s boxes its operand", target.String())
		return
	}
	if isStringType(target) != isStringType(src) && (isByteOrRuneSlice(target) || isByteOrRuneSlice(src)) {
		hc.report(call.Pos(), root, "string/slice conversion copies its operand")
	}
}

func (hc *hotChecker) checkCallBoxing(pkg *Package, call *ast.CallExpr, sig *types.Signature, root string) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		hc.checkBoxingTo(pkg, arg, pt, root, "argument")
	}
}

func (hc *hotChecker) checkAssign(pkg *Package, as *ast.AssignStmt, root string) {
	for _, lhs := range as.Lhs {
		if ix, ok := unparen(lhs).(*ast.IndexExpr); ok && isMapType(pkg.Info.TypeOf(ix.X)) {
			hc.report(lhs.Pos(), root, "map store may grow the map")
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value call assignment: types already match
	}
	for i, rhs := range as.Rhs {
		lt := pkg.Info.Types[as.Lhs[i]].Type
		hc.checkBoxingTo(pkg, rhs, lt, root, "assignment")
	}
}

func (hc *hotChecker) checkReturnBoxing(pkg *Package, ret *ast.ReturnStmt, root string) {
	var sig *types.Signature
	switch fn := enclosingFunc(hc.pass.parents, ret).(type) {
	case *ast.FuncDecl:
		sig, _ = pkg.Info.Defs[fn.Name].Type().(*types.Signature)
	case *ast.FuncLit:
		sig, _ = pkg.Info.Types[fn].Type.(*types.Signature)
	}
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		hc.checkBoxingTo(pkg, res, sig.Results().At(i).Type(), root, "return")
	}
}

func (hc *hotChecker) checkComposite(pkg *Package, lit *ast.CompositeLit, root string) {
	t := pkg.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		hc.report(lit.Pos(), root, "slice literal allocates")
		return
	case *types.Map:
		hc.report(lit.Pos(), root, "map literal allocates")
		return
	}
	if ue, ok := hc.pass.parents[lit].(*ast.UnaryExpr); ok && ue.Op == token.AND {
		hc.report(ue.Pos(), root, "&composite literal allocates")
		return
	}
	// Struct literal by value: check interface-typed fields for boxing.
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := pkg.Info.Uses[key].(*types.Var); ok {
				hc.checkBoxingTo(pkg, kv.Value, v.Type(), root, "composite field")
			}
			continue
		}
		if i < st.NumFields() {
			hc.checkBoxingTo(pkg, elt, st.Field(i).Type(), root, "composite field")
		}
	}
}

func (hc *hotChecker) checkBoxingTo(pkg *Package, expr ast.Expr, to types.Type, root, what string) {
	if to == nil || !isInterface(to) {
		return
	}
	tv := pkg.Info.Types[expr]
	from := tv.Type
	if from == nil || isInterface(from) || isUntypedNil(from) {
		return
	}
	if _, ok := from.(*types.TypeParam); ok {
		return
	}
	hc.report(expr.Pos(), root, "%s converts %s to interface %s (boxing allocates)", what, from.String(), to.String())
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Uint8 || b.Kind() == types.Int32
}
