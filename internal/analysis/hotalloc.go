package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
// literals, &T{...}, nested function literals, go statements, string
// concatenation, string<->[]byte conversions, and implicit interface
// conversions (boxing) at calls, assignments, returns, and composite
// fields. Calls are followed into every function whose body was loaded;
// calls out of the module are rejected unless Config.HotAllocAllow
// vouches for them, and dynamic calls (function values, interface
// methods) are rejected outright — an unseen body cannot be proven
// allocation-free.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocating constructs reachable from copydetect:hotpath roots",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	hc := &hotChecker{
		pass:    pass,
		decls:   make(map[string]declSite),
		visited: make(map[string]bool),
	}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					// Keyed by FullName: cross-package references resolve
					// through gc export data, so the *types.Func a caller
					// sees is not the same object the defining package's
					// source check produced.
					hc.decls[fn.FullName()] = declSite{pkg: pkg, decl: fd}
				}
			}
		}
	}
	for _, pkg := range pass.Prog.Pkgs {
		hotDecls, hotLits := pass.Annots.HotRoots(pkg)
		for _, fd := range hotDecls {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || hc.visited[fn.FullName()] {
				continue
			}
			hc.visited[fn.FullName()] = true
			hc.checkBody(pkg, fd, fd.Body, fn.Name())
		}
		for _, hl := range hotLits {
			hc.checkBody(pkg, hl.Lit, hl.Lit.Body, hl.Name)
		}
	}
	return nil
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

// checkBody walks one hot function. fn is the FuncDecl or FuncLit whose
// body is checked (body is passed separately so the root literal itself
// is not reported as a nested closure); root names the annotated entry
// point for diagnostics.
func (hc *hotChecker) checkBody(pkg *Package, fn ast.Node, body *ast.BlockStmt, root string) {
	info := pkg.Info
	parents := parentMap(fn)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			hc.report(n.Pos(), root, "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			hc.report(n.Pos(), root, "go statement allocates a goroutine")
			return false
		case *ast.CompositeLit:
			hc.checkComposite(pkg, parents, n, root)
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(info.Types[n].Type) && info.Types[n].Value == nil {
				hc.report(n.Pos(), root, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			hc.checkAssignBoxing(pkg, n, root)
		case *ast.ReturnStmt:
			hc.checkReturnBoxing(pkg, parents, n, root)
		case *ast.CallExpr:
			hc.checkCall(pkg, fn, parents, n, root)
		}
		return true
	})
}

func (hc *hotChecker) report(pos token.Pos, root, format string, args ...any) {
	hc.pass.Report(pos, "hot path (reachable from %s): "+format, append([]any{root}, args...)...)
}

func (hc *hotChecker) checkCall(pkg *Package, fnNode ast.Node, parents map[ast.Node]ast.Node, call *ast.CallExpr, root string) {
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
				if !hc.appendReusesCapacity(pkg, fnNode, call) {
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
	site, ok := hc.decls[full]
	if !ok {
		if !hc.pass.Config.allocAllowed(full) {
			hc.report(call.Pos(), root, "call to %s: body outside analysis scope and not allowlisted in HotAllocAllow", full)
		}
		return
	}
	if hc.visited[full] {
		return
	}
	hc.visited[full] = true
	hc.checkBody(site.pkg, site.decl, site.decl.Body, root)
}

// appendReusesCapacity reports whether the slice being appended to has a
// capacity-reuse reset (x = buf[:0] / x := buf[:0]) somewhere in the
// same function — the repo's scratch-buffer idiom, which never grows in
// steady state.
func (hc *hotChecker) appendReusesCapacity(pkg *Package, fnNode ast.Node, call *ast.CallExpr) bool {
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
	ast.Inspect(fnNode, func(n ast.Node) bool {
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

func (hc *hotChecker) checkAssignBoxing(pkg *Package, as *ast.AssignStmt, root string) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value call assignment: types already match
	}
	for i, rhs := range as.Rhs {
		lt := pkg.Info.Types[as.Lhs[i]].Type
		hc.checkBoxingTo(pkg, rhs, lt, root, "assignment")
	}
}

func (hc *hotChecker) checkReturnBoxing(pkg *Package, parents map[ast.Node]ast.Node, ret *ast.ReturnStmt, root string) {
	fn := enclosingFunc(parents, ret)
	var ftype *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ftype = fn.Type
	case *ast.FuncLit:
		ftype = fn.Type
	default:
		return
	}
	sig, ok := pkg.Info.Types[ftype].Type.(*types.Signature)
	if !ok {
		if obj, ok2 := fn.(*ast.FuncDecl); ok2 {
			if f, ok3 := pkg.Info.Defs[obj.Name].(*types.Func); ok3 {
				sig = f.Type().(*types.Signature)
				ok = true
			}
		}
	}
	if !ok || sig.Results() == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		hc.checkBoxingTo(pkg, res, sig.Results().At(i).Type(), root, "return")
	}
}

func (hc *hotChecker) checkComposite(pkg *Package, parents map[ast.Node]ast.Node, lit *ast.CompositeLit, root string) {
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
	if _, ok := parents[lit].(*ast.UnaryExpr); ok {
		if ue := parents[lit].(*ast.UnaryExpr); ue.Op.String() == "&" {
			hc.report(ue.Pos(), root, "&composite literal allocates")
			return
		}
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
