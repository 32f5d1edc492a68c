package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
)

// HotPathAnalyzer enforces PR 1's zero-allocation contract: every
// function annotated //scrub:hotpath, and everything it statically
// calls, must be free of alloc-inducing constructs. The checked set is
// the transitive closure over resolvable calls (direct functions and
// methods; calls through func values and interfaces are not chased —
// the hot path avoids them by construction, a compiled predicate being
// the one deliberate exception).
//
// Flagged constructs: make/new, map and slice literals, &composite
// literals, append outside the two amortized-reuse idioms
// (`x = append(x, …)` and `return append(param, …)`), closures, string
// concatenation and string<->[]byte conversions, fmt calls, go
// statements, variadic calls (the argument slice), and implicit
// interface conversions of values that are not pointer-shaped (those
// heap-allocate; pointer-shaped values are stored directly in the
// interface word).
//
// Escape hatches: //scrub:allowalloc(reason) on the line (or the line
// above) suppresses one site; on a function's doc comment it exempts —
// and stops traversal into — the whole function (slow paths like pool
// refills).
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "functions reachable from //scrub:hotpath must not allocate",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	prog := pass.Prog
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	hc := &hotChecker{pass: pass, sizes: sizes, via: make(map[string]string)}

	// Seed set, then BFS over the static call graph.
	var queue []string
	for name := range prog.Ann.HotSeeds {
		if _, ok := prog.Funcs[name]; ok {
			hc.via[name] = name
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		node := prog.Funcs[name]
		root := hc.via[name]
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(node.Pkg, call.Fun)
			if fn == nil {
				return true
			}
			callee := fn.FullName()
			if _, declared := prog.Funcs[callee]; !declared {
				return true
			}
			if prog.Ann.AllowAllocFuncs[callee] {
				return true // explicitly exempt slow path; not traversed
			}
			if _, seen := hc.via[callee]; !seen {
				hc.via[callee] = root
				queue = append(queue, callee)
			}
			return true
		})
	}

	for name, root := range hc.via {
		node := prog.Funcs[name]
		hc.check(node.Pkg, node.Decl, root)
	}
}

type hotChecker struct {
	pass  *Pass
	sizes types.Sizes
	// via maps each hot function to the //scrub:hotpath seed that first
	// reached it, for attributable diagnostics.
	via map[string]string
	// curParams is the parameter list of the function being checked,
	// used to recognize the return-append-param builder idiom.
	curParams *ast.FieldList
}

func (hc *hotChecker) reportf(pos token.Pos, root, format string, args ...any) {
	hc.pass.Reportf("hotpath", pos, "hot path (via %s): "+format, append([]any{root}, args...)...)
}

// check walks one hot function's body flagging allocation sites.
func (hc *hotChecker) check(u *Package, decl *ast.FuncDecl, root string) {
	hc.curParams = decl.Type.Params
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			hc.reportf(e.Pos(), root, "function literal allocates a closure")
			return false // body is cold until the closure is called; one report suffices
		case *ast.GoStmt:
			hc.reportf(e.Pos(), root, "go statement allocates a goroutine")
		case *ast.CompositeLit:
			t := u.TypeOf(e)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					hc.reportf(e.Pos(), root, "map literal allocates")
				case *types.Slice:
					hc.reportf(e.Pos(), root, "slice literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					hc.reportf(e.Pos(), root, "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if t, ok := u.TypeOf(e).(*types.Basic); ok && t.Info()&types.IsString != 0 {
					hc.reportf(e.Pos(), root, "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			hc.checkCall(u, e, parents, root)
		}
		return true
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		return walk(n)
	})

	// Interface conversions at assignments and returns (call arguments
	// are handled in checkCall).
	sig, _ := u.TypeOf(decl.Name).(*types.Signature)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					if s.Tok == token.DEFINE {
						continue
					}
					hc.checkIfaceConv(u, u.TypeOf(s.Lhs[i]), s.Rhs[i], root)
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(s.Results) {
				for i, r := range s.Results {
					hc.checkIfaceConv(u, sig.Results().At(i).Type(), r, root)
				}
			}
		}
		return true
	})
}

func (hc *hotChecker) checkCall(u *Package, call *ast.CallExpr, parents map[ast.Node]ast.Node, root string) {
	// Builtins and conversions.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := objOf(u, id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				hc.reportf(call.Pos(), root, "make allocates")
			case "new":
				hc.reportf(call.Pos(), root, "new allocates")
			case "append":
				if !hc.appendAllowed(u, call, parents) {
					hc.reportf(call.Pos(), root, "append may grow and allocate (only `x = append(x, …)` reuse or `return append(param, …)` builders are exempt)")
				}
			}
			return
		}
	}
	if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		// Conversion T(x).
		target := tv.Type
		argT := u.TypeOf(call.Args[0])
		if isIface(target) && argT != nil && !isIface(argT) && !hc.convAllocFree(argT) {
			hc.reportf(call.Pos(), root, "conversion to interface %s boxes a non-pointer-shaped value", types.TypeString(target, nil))
		}
		if allocatingStringConv(target, argT) {
			hc.reportf(call.Pos(), root, "string/[]byte conversion copies and allocates")
		}
		return
	}

	fn := funcFor(u, call.Fun)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		hc.reportf(call.Pos(), root, "fmt.%s allocates", fn.Name())
		return
	}

	// Implicit interface conversions and variadic slices at call sites.
	sig, _ := u.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			last := sig.Params().At(np - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				paramT = sl.Elem()
			}
			if call.Ellipsis == token.NoPos && i == np-1 {
				hc.reportf(call.Pos(), root, "variadic call allocates its argument slice")
			}
		case i < np:
			paramT = sig.Params().At(i).Type()
		}
		if paramT == nil || !isIface(paramT) {
			continue
		}
		argT := u.TypeOf(arg)
		if argT == nil || isIface(argT) || isNil(u, arg) {
			continue
		}
		if !hc.convAllocFree(argT) {
			hc.reportf(arg.Pos(), root, "argument boxes non-pointer-shaped %s into interface %s", types.TypeString(argT, nil), types.TypeString(paramT, nil))
		}
	}
}

// appendAllowed recognizes the two amortized idioms that reuse a
// caller- or owner-managed buffer instead of leaking garbage per call.
func (hc *hotChecker) appendAllowed(u *Package, call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	switch p := parents[call].(type) {
	case *ast.AssignStmt:
		// x = append(x, …): same destination as base, amortized growth.
		if len(p.Lhs) == 1 && len(p.Rhs) == 1 && p.Rhs[0] == call {
			return types.ExprString(p.Lhs[0]) == types.ExprString(call.Args[0])
		}
	case *ast.ReturnStmt:
		// return append(param, …): the caller owns amortization (the
		// AppendEncode-style builder idiom).
		base := rootIdent(call.Args[0])
		if base == nil {
			return false
		}
		v, ok := objOf(u, base).(*types.Var)
		if !ok || hc.curParams == nil {
			return false
		}
		return hc.curParams.Pos() <= v.Pos() && v.Pos() <= hc.curParams.End()
	}
	return false
}

func (hc *hotChecker) checkIfaceConv(u *Package, target types.Type, val ast.Expr, root string) {
	if target == nil || !isIface(target) {
		return
	}
	vt := u.TypeOf(val)
	if vt == nil || isIface(vt) || isNil(u, val) {
		return
	}
	if !hc.convAllocFree(vt) {
		hc.reportf(val.Pos(), root, "assignment boxes non-pointer-shaped %s into interface %s", types.TypeString(vt, nil), types.TypeString(target, nil))
	}
}

// convAllocFree reports whether storing a value of type t in an
// interface cannot allocate: pointer-shaped representations go directly
// in the interface word, and zero-sized values use a shared sentinel.
func (hc *hotChecker) convAllocFree(t types.Type) bool {
	if hc.sizes != nil && hc.sizes.Sizeof(t) == 0 {
		return true
	}
	return pointerShaped(t)
}

func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

func isIface(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false // a type argument is substituted, not boxed
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isNil(u *Package, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		_, isNilObj := objOf(u, id).(*types.Nil)
		return isNilObj
	}
	return false
}

func allocatingStringConv(target, arg types.Type) bool {
	if target == nil || arg == nil {
		return false
	}
	tb, _ := target.Underlying().(*types.Basic)
	ab, _ := arg.Underlying().(*types.Basic)
	tSlice, _ := target.Underlying().(*types.Slice)
	aSlice, _ := arg.Underlying().(*types.Slice)
	isByteish := func(s *types.Slice) bool {
		if s == nil {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	// string(bytes/runes) and []byte/[]rune(string) copy.
	if tb != nil && tb.Info()&types.IsString != 0 && isByteish(aSlice) {
		return true
	}
	if ab != nil && ab.Info()&types.IsString != 0 && isByteish(tSlice) {
		return true
	}
	return false
}
