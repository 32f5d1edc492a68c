package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// PoolSafeAnalyzer encodes the "sinks must copy what they retain"
// contract from PR 1: memory annotated //scrub:pooled — the agent's
// chunk buffers, a TupleBatch's Tuples slice and each Tuple's Values
// array — is recycled the moment SendBatch returns, so nothing may
// retain it past the owning call without a deep copy.
//
// The check is a per-function taint pass:
//
//   - sources: values of a //scrub:pooled type anywhere, and selections
//     of a //scrub:pooled field on values that flowed in through a
//     parameter or came back from a //scrub:pooled function — a receive
//     into caller-lent scratch (your own copies are clean; what a caller
//     hands you, or a callee lends you, is not);
//   - propagation: selector/index/slice/deref chains, local
//     assignments, range, type switches, shallow copies (append/copy
//     keep the taint whenever the element type still carries pooled
//     fields);
//   - sinks: stores into struct fields, globals, or map entries whose
//     root is not itself pooled memory, and channel sends;
//   - sanitizers: calls to functions whose name contains Copy/Clone/Dup
//     (and such functions are themselves exempt — they are the mandated
//     deep-copy implementations);
//   - escape hatch: //scrub:allowretain(reason) on or above the line —
//     the annotation that marks deliberate ownership transfer, like the
//     agent handing a full chunk to its shipper.
var PoolSafeAnalyzer = &Analyzer{
	Name: "poolsafe",
	Doc:  "pooled chunk/batch memory must not be retained without a deep copy",
	Run:  runPoolSafe,
}

var copyNameRe = regexp.MustCompile(`(?i)(copy|clone|dup)`)

func runPoolSafe(pass *Pass) {
	for _, u := range pass.Prog.Packages {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if copyNameRe.MatchString(fd.Name.Name) {
					continue
				}
				ps := &poolState{
					pass:    pass,
					u:       u,
					foreign: make(map[types.Object]bool),
					pooled:  make(map[types.Object]bool),
				}
				// Parameters are foreign (not the receiver: receiver fields
				// are the component's own storage, vetted where filled).
				if fd.Type.Params != nil {
					for _, p := range fd.Type.Params.List {
						for _, name := range p.Names {
							if obj := u.Info.Defs[name]; obj != nil {
								ps.foreign[obj] = true
							}
						}
					}
				}
				ps.walk(fd.Body)
			}
		}
	}
}

type poolState struct {
	pass *Pass
	u    *Package
	// foreign: locals that flowed in through a parameter.
	foreign map[types.Object]bool
	// pooled: locals currently holding (or aliasing) pooled memory.
	pooled map[types.Object]bool
}

func (ps *poolState) reportf(pos token.Pos, format string, args ...any) {
	ps.pass.Reportf("poolsafe", pos, format+" — deep-copy it (e.g. transport.CloneBatch) or annotate //scrub:allowretain(reason)", args...)
}

func (ps *poolState) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			ps.assign(s)
		case *ast.SendStmt:
			if ps.retainsPooled(s.Value) {
				ps.reportf(s.Arrow, "pooled memory sent on a channel leaves the owning scope")
			}
		case *ast.TypeSwitchStmt:
			ps.typeSwitch(s)
		case *ast.RangeStmt:
			if ps.pooledExpr(s.X) {
				if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
					if obj := ps.u.Info.Defs[id]; obj != nil {
						ps.pooled[obj] = true
					}
				}
			}
			if ps.foreignExpr(s.X) {
				for _, v := range []ast.Expr{s.Key, s.Value} {
					if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
						if obj := ps.u.Info.Defs[id]; obj != nil {
							ps.foreign[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			// copy(dst, pooled) shallow-copies: if the element type still
			// carries pooled fields, the copy retains pooled backing arrays.
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
				if b, ok := objOf(ps.u, id).(*types.Builtin); ok && b.Name() == "copy" && len(s.Args) == 2 {
					if (ps.pooledExpr(s.Args[1]) || ps.foreignExpr(s.Args[1])) && ps.elemCarriesPooled(ps.u.TypeOf(s.Args[1])) {
						ps.reportf(s.Pos(), "copy() is a shallow copy: the element type carries //scrub:pooled fields whose arrays stay aliased")
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					ps.bindIdent(name, s.Values[i])
				}
			}
		}
		return true
	})
}

// typeSwitch carries the taint of `switch t := m.(type)`'s operand to
// the t of every clause (each clause declares its own).
func (ps *poolState) typeSwitch(s *ast.TypeSwitchStmt) {
	as, ok := s.Assign.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return
	}
	ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr)
	if !ok {
		return
	}
	pooled, foreign := ps.pooledExpr(ta.X), ps.foreignExpr(ta.X)
	for _, clause := range s.Body.List {
		if obj := ps.u.Info.Implicits[clause]; obj != nil {
			if pooled {
				ps.pooled[obj] = true
			}
			if foreign {
				ps.foreign[obj] = true
			}
		}
	}
}

// borrows reports whether e is a call to a //scrub:pooled function.
func (ps *poolState) borrows(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := funcFor(ps.u, call.Fun)
	return fn != nil && ps.pass.Prog.Ann.BorrowFuncs[fn.FullName()]
}

func (ps *poolState) assign(s *ast.AssignStmt) {
	// Multi-value RHS (x, err := f()): taint by result type, and by the
	// callee lending its results.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		borrowed := ps.borrows(s.Rhs[0])
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				obj := objOf(ps.u, id)
				if obj == nil {
					continue
				}
				if ps.typePooled(obj.Type()) {
					ps.pooled[obj] = true
				}
				if borrowed {
					ps.foreign[obj] = true
				}
			}
		}
		return
	}
	for i := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		lhs, rhs := s.Lhs[i], s.Rhs[i]
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := objOf(ps.u, id)
			if obj == nil {
				continue
			}
			if isPkgLevel(obj) && ps.retainsPooled(rhs) {
				ps.reportf(s.TokPos, "pooled memory stored in package-level variable %s", id.Name)
				continue
			}
			ps.bindIdent(id, rhs)
			continue
		}
		// Store through a selector/index/deref chain.
		root := rootIdent(lhs)
		// Strong update first: x.f = <clean> where f is the pooled-carrying
		// field of tainted (or foreign) local x detaches x from the pool —
		// the deep-copy repair idiom `kept := *t; kept.Values =
		// append([]V(nil), t.Values...)` yields a self-owned value.
		if sel, ok := lhs.(*ast.SelectorExpr); ok && root != nil && !ps.pooledExpr(rhs) {
			if obj := objOf(ps.u, root); obj != nil && (ps.pooled[obj] || ps.foreign[obj]) {
				if base := ps.u.TypeOf(sel.X); base != nil && ps.pass.Prog.Ann.PooledFields[fieldKeyOf(base, sel.Sel.Name)] {
					delete(ps.pooled, obj)
					delete(ps.foreign, obj)
					continue
				}
			}
		}
		rootPooled := false
		if root != nil {
			if obj := objOf(ps.u, root); obj != nil {
				rootPooled = ps.pooled[obj] || ps.typePooled(obj.Type())
			}
		}
		if rootPooled {
			// Storing into pooled memory (chunk internals) is the owner
			// filling its own arena.
			continue
		}
		if ps.retainsPooled(rhs) {
			ps.reportf(s.TokPos, "pooled memory stored into %s, which outlives the batch/chunk call scope", types.ExprString(lhs))
		}
	}
}

func (ps *poolState) bindIdent(id *ast.Ident, rhs ast.Expr) {
	obj := objOf(ps.u, id)
	if obj == nil {
		return
	}
	if ps.pooledExpr(rhs) {
		ps.pooled[obj] = true
	} else {
		delete(ps.pooled, obj)
	}
	if ps.foreignExpr(rhs) || ps.borrows(rhs) {
		ps.foreign[obj] = true
	}
}

// retainsPooled reports whether retaining e retains pooled memory: e is
// pooled itself, or e is a whole foreign value (no pooled field selected)
// whose type still carries //scrub:pooled fields — keeping the struct
// aliases its pooled arrays just as surely as keeping the field.
func (ps *poolState) retainsPooled(e ast.Expr) bool {
	if ps.pooledExpr(e) {
		return true
	}
	return ps.foreignExpr(e) && ps.elemCarriesPooled(ps.u.TypeOf(e))
}

// pooledExpr reports whether e evaluates to (or aliases) pooled memory.
func (ps *poolState) pooledExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := objOf(ps.u, x)
		if obj == nil {
			return false
		}
		return ps.pooled[obj] || ps.typePooled(obj.Type())
	case *ast.SelectorExpr:
		if ps.typePooled(ps.u.TypeOf(e)) {
			return true
		}
		if base := ps.u.TypeOf(x.X); base != nil {
			if ps.pass.Prog.Ann.PooledFields[fieldKeyOf(base, x.Sel.Name)] && ps.foreignExpr(x.X) {
				return true
			}
		}
		return ps.pooledExpr(x.X)
	case *ast.IndexExpr:
		return ps.typePooled(ps.u.TypeOf(e)) || ps.pooledExpr(x.X)
	case *ast.SliceExpr:
		return ps.pooledExpr(x.X)
	case *ast.StarExpr:
		return ps.pooledExpr(x.X)
	case *ast.ParenExpr:
		return ps.pooledExpr(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ps.pooledExpr(x.X)
		}
	case *ast.TypeAssertExpr:
		return ps.typePooled(ps.u.TypeOf(e)) || ps.pooledExpr(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if ps.pooledExpr(v) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if fn := funcFor(ps.u, x.Fun); fn != nil && copyNameRe.MatchString(fn.Name()) {
			return false // sanitizer: a deep copy owns its memory
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := objOf(ps.u, id).(*types.Builtin); ok && b.Name() == "append" {
				// A shallow slice copy detaches from the pooled backing
				// array, but stays tainted while the element type carries
				// pooled fields of its own.
				for _, a := range x.Args[1:] {
					if ps.pooledExpr(a) || ps.foreignExpr(a) {
						return ps.elemCarriesPooled(ps.u.TypeOf(x))
					}
				}
				return ps.pooledExpr(x.Args[0])
			}
		}
		return ps.typePooled(ps.u.TypeOf(e))
	}
	return false
}

// foreignExpr reports whether e's root flowed in through a parameter.
func (ps *poolState) foreignExpr(e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := objOf(ps.u, root)
	return obj != nil && ps.foreign[obj]
}

func (ps *poolState) typePooled(t types.Type) bool {
	if t == nil {
		return false
	}
	key := typeKeyOf(t)
	if key != "" && ps.pass.Prog.Ann.PooledTypes[key] {
		return true
	}
	// Slices/arrays of pooled types are pooled too.
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return typeKeyOf(u.Elem()) != "" && ps.pass.Prog.Ann.PooledTypes[typeKeyOf(u.Elem())]
	}
	return false
}

// elemCarriesPooled reports whether t's element type (for slices/arrays)
// or t itself still carries //scrub:pooled fields after a shallow
// element-wise copy.
func (ps *poolState) elemCarriesPooled(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return ps.structCarriesPooled(u.Elem(), 0)
	case *types.Array:
		return ps.structCarriesPooled(u.Elem(), 0)
	}
	return ps.structCarriesPooled(t, 0)
}

func (ps *poolState) structCarriesPooled(t types.Type, depth int) bool {
	if t == nil || depth > 3 {
		return false
	}
	if ps.typePooled(t) {
		return true
	}
	key := typeKeyOf(t)
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if key != "" && ps.pass.Prog.Ann.PooledFields[key+"."+f.Name()] {
			return true
		}
		if ps.structCarriesPooled(f.Type(), depth+1) {
			return true
		}
	}
	return false
}

func isPkgLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}
