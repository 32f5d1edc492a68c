package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CodecSymAnalyzer proves the hand-written wire codec symmetric and
// exhaustive. A codec package is any package declaring `writer` and
// `reader` types plus `AppendEncode` and `Decode` functions (transport,
// in this tree). For every registered message type — a named type with a
// `msgTag` method — the analyzer:
//
//   - extracts the ordered sequence of writer-method calls from the
//     type's AppendEncode switch arm (following the default clause into
//     helpers like appendEncodeCoord, and loops into repeated groups)
//     and the ordered reader-method calls from the matching Decode arm
//     (paired via the tag constant msgTag returns), then diagnoses any
//     field-order, width, or count mismatch between the two;
//   - checks composite writer/reader helper pairs (strs, u64s,
//     windowPartials, …) the same way, so an asymmetry inside a shared
//     helper is caught once at its definition;
//   - proves exhaustiveness: the type must appear in the encode switch,
//     the decode switch, the Name switch (when the package declares
//     one), and at least one dispatch site — a `switch m.(type)` case or
//     type assertion outside the codec machinery — so adding message #16
//     without wiring it everywhere is a vet failure, not a runtime
//     "unknown message".
var CodecSymAnalyzer = &Analyzer{
	Name: "codecsym",
	Doc:  "wire-codec encode/decode symmetry and message-type exhaustiveness",
	Run:  runCodecSym,
}

func runCodecSym(pass *Pass) {
	for _, u := range pass.Prog.Packages {
		if u.IsXTest {
			continue
		}
		cs := newCodecState(pass, u)
		if cs != nil {
			cs.check()
		}
	}
}

// shapeItem is one element of a normalized codec shape: either a single
// primitive op (a writer/reader method call, canonical name) or a
// repeated group (a loop body).
type shapeItem struct {
	op  string
	pos token.Pos
	rep []shapeItem // non-nil: repeated group; op is ""
}

func describeItem(it shapeItem) string {
	if it.rep != nil {
		return "a repeated group"
	}
	return it.op
}

type codecState struct {
	pass *Pass
	u    *Package
	// wNamed/rNamed are the package's writer/reader types; a method call
	// on either is a codec op.
	wNamed, rNamed *types.Named
	// excluded are the codec-machinery declarations (codec switches,
	// msgTag methods, writer/reader methods, Name) that never count as
	// dispatch sites.
	excluded map[*ast.FuncDecl]bool
}

// newCodecState returns nil unless u structurally looks like a codec
// package: writer + reader types and AppendEncode + Decode functions.
func newCodecState(pass *Pass, u *Package) *codecState {
	scope := u.Types.Scope()
	w, _ := scope.Lookup("writer").(*types.TypeName)
	r, _ := scope.Lookup("reader").(*types.TypeName)
	if w == nil || r == nil {
		return nil
	}
	wn := namedOf(w.Type())
	rn := namedOf(r.Type())
	if wn == nil || rn == nil {
		return nil
	}
	cs := &codecState{pass: pass, u: u, wNamed: wn, rNamed: rn, excluded: make(map[*ast.FuncDecl]bool)}
	if cs.funcDecl("AppendEncode") == nil || cs.funcDecl("Decode") == nil {
		return nil
	}
	return cs
}

// funcDecl finds a package-level function declaration by name.
func (cs *codecState) funcDecl(name string) *ast.FuncDecl {
	for _, f := range cs.u.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// registered is one message type: named type with a msgTag method.
type registeredMsg struct {
	obj *types.TypeName
	// tagConst is the constant msgTag returns (nil when unresolvable).
	tagConst types.Object
	tagDecl  *ast.FuncDecl
}

func (cs *codecState) check() {
	msgs := cs.registeredTypes()
	if len(msgs) == 0 {
		return
	}

	encDecl := cs.funcDecl("AppendEncode")
	decDecl := cs.funcDecl("Decode")
	encArms := cs.collectEncodeArms(encDecl)
	decArms := cs.collectDecodeArms(decDecl)
	nameDecl := cs.funcDecl("Name")
	var named map[*types.TypeName]bool
	if nameDecl != nil {
		named = cs.collectNameCases(nameDecl)
	}
	cs.excludeCodecMethods()
	dispatched := cs.collectDispatchSites()
	// Dispatch coverage is whole-program evidence: with a partial load
	// (scrubvet ./internal/transport) the consuming packages are absent
	// and every type would look undispatched. Only enforce when at least
	// one registered type IS dispatched somewhere in the loaded program —
	// deleting a single dispatch arm still fails, a partial load goes
	// silent instead of lying.
	anyDispatched := false
	for _, m := range msgs {
		if dispatched[typeKeyOf(m.obj.Type())] {
			anyDispatched = true
			break
		}
	}

	for _, m := range msgs {
		pos := m.obj.Pos()
		enc, hasEnc := encArms[m.obj]
		if !hasEnc {
			cs.pass.Reportf("codecsym", pos, "message %s has a msgTag but no arm in the encode switch (AppendEncode)", m.obj.Name())
		}
		if m.tagConst == nil {
			cs.pass.Reportf("codecsym", pos, "message %s: cannot resolve the tag constant its msgTag returns; codec symmetry is unchecked", m.obj.Name())
		} else {
			dec, hasDec := decArms[m.tagConst]
			if !hasDec {
				cs.pass.Reportf("codecsym", pos, "message %s has a msgTag but no arm in the decode switch (Decode, tag %s)", m.obj.Name(), m.tagConst.Name())
			} else if hasEnc {
				if msg, dpos := diffShape(enc, dec); msg != "" {
					if !dpos.IsValid() {
						dpos = pos
					}
					cs.pass.Reportf("codecsym", dpos, "codec asymmetry for %s: %s", m.obj.Name(), msg)
				}
			}
		}
		if nameDecl != nil && !named[m.obj] {
			cs.pass.Reportf("codecsym", pos, "message %s is missing from the Name switch", m.obj.Name())
		}
		if anyDispatched && !dispatched[typeKeyOf(m.obj.Type())] {
			cs.pass.Reportf("codecsym", pos, "message %s is never dispatched: no type-switch case or type assertion consumes it outside the codec", m.obj.Name())
		}
	}

	cs.checkHelperPairs()
}

// registeredTypes enumerates the package's message types in declaration
// order.
func (cs *codecState) registeredTypes() []registeredMsg {
	var out []registeredMsg
	scope := cs.u.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := namedOf(tn.Type())
		if named == nil {
			continue
		}
		var tagFn *types.Func
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == "msgTag" {
				tagFn = named.Method(i)
				break
			}
		}
		if tagFn == nil {
			continue
		}
		m := registeredMsg{obj: tn}
		if node := cs.pass.Prog.Funcs[tagFn.FullName()]; node != nil {
			m.tagDecl = node.Decl
			m.tagConst = tagConstOf(cs.u, node.Decl)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.Pos() < out[j].obj.Pos() })
	return out
}

// tagConstOf extracts the constant returned by a msgTag body of the
// canonical `return tagX` form.
func tagConstOf(u *Package, fd *ast.FuncDecl) types.Object {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return nil
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	if c, ok := u.Info.Uses[id].(*types.Const); ok {
		return c
	}
	return nil
}

// collectEncodeArms maps each message type to its encode-arm shape,
// following the switch's default clause into same-package helper
// functions (appendEncodeCoord).
func (cs *codecState) collectEncodeArms(fd *ast.FuncDecl) map[*types.TypeName][]shapeItem {
	arms := make(map[*types.TypeName][]shapeItem)
	seen := make(map[*ast.FuncDecl]bool)
	var walk func(fd *ast.FuncDecl)
	walk = func(fd *ast.FuncDecl) {
		if fd == nil || fd.Body == nil || seen[fd] {
			return
		}
		seen[fd] = true
		cs.excluded[fd] = true
		tsw := firstTypeSwitch(fd.Body)
		if tsw == nil {
			return
		}
		for _, stmt := range tsw.Body.List {
			cc := stmt.(*ast.CaseClause)
			if cc.List == nil {
				for _, helper := range cs.samePkgCallees(cc.Body) {
					walk(helper)
				}
				continue
			}
			shape := cs.extractStmts(cc.Body)
			for _, texpr := range cc.List {
				if tn := typeNameOf(cs.u, texpr); tn != nil {
					arms[tn] = shape
				}
			}
		}
	}
	walk(fd)
	return arms
}

// collectDecodeArms maps each tag constant to its decode-arm shape,
// following the default clause into same-package helpers (decodeCoord),
// and a Decode that holds no tag switch itself into the function it
// delegates to.
func (cs *codecState) collectDecodeArms(fd *ast.FuncDecl) map[types.Object][]shapeItem {
	arms := make(map[types.Object][]shapeItem)
	seen := make(map[*ast.FuncDecl]bool)
	var walk func(fd *ast.FuncDecl)
	walk = func(fd *ast.FuncDecl) {
		if fd == nil || fd.Body == nil || seen[fd] {
			return
		}
		seen[fd] = true
		cs.excluded[fd] = true
		sw := firstTagSwitch(fd.Body)
		if sw == nil {
			// An entry point that only picks the allocation strategy
			// (Decode → decode(b, nil)): the switch is one call down.
			for _, helper := range cs.samePkgCallees(fd.Body.List) {
				walk(helper)
			}
			return
		}
		for _, stmt := range sw.Body.List {
			cc := stmt.(*ast.CaseClause)
			if cc.List == nil {
				for _, helper := range cs.samePkgCallees(cc.Body) {
					walk(helper)
				}
				continue
			}
			shape := cs.extractStmts(cc.Body)
			for _, cexpr := range cc.List {
				if id, ok := ast.Unparen(cexpr).(*ast.Ident); ok {
					if c, ok := cs.u.Info.Uses[id].(*types.Const); ok {
						arms[c] = shape
					}
				}
			}
		}
	}
	walk(fd)
	return arms
}

// collectNameCases gathers the types the Name switch covers, following
// its default clause into helpers (nameCoord).
func (cs *codecState) collectNameCases(fd *ast.FuncDecl) map[*types.TypeName]bool {
	covered := make(map[*types.TypeName]bool)
	seen := make(map[*ast.FuncDecl]bool)
	var walk func(fd *ast.FuncDecl)
	walk = func(fd *ast.FuncDecl) {
		if fd == nil || fd.Body == nil || seen[fd] {
			return
		}
		seen[fd] = true
		cs.excluded[fd] = true
		tsw := firstTypeSwitch(fd.Body)
		if tsw == nil {
			return
		}
		for _, stmt := range tsw.Body.List {
			cc := stmt.(*ast.CaseClause)
			if cc.List == nil {
				for _, helper := range cs.samePkgCallees(cc.Body) {
					walk(helper)
				}
				continue
			}
			for _, texpr := range cc.List {
				if tn := typeNameOf(cs.u, texpr); tn != nil {
					covered[tn] = true
				}
			}
		}
	}
	walk(fd)
	return covered
}

// samePkgCallees resolves the package-level functions (not writer/reader
// methods) a statement list calls — the default-clause helper hook.
func (cs *codecState) samePkgCallees(stmts []ast.Stmt) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(cs.u, call.Fun)
			if fn == nil || fn.Pkg() != cs.u.Types {
				return true
			}
			if node := cs.pass.Prog.Funcs[fn.FullName()]; node != nil && node.Decl.Recv == nil {
				out = append(out, node.Decl)
			}
			return true
		})
	}
	return out
}

// excludeCodecMethods marks msgTag methods and all writer/reader methods
// as machinery (never dispatch evidence).
func (cs *codecState) excludeCodecMethods() {
	for _, f := range cs.u.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if fd.Name.Name == "msgTag" {
				cs.excluded[fd] = true
				continue
			}
			rt := namedOf(cs.u.TypeOf(fd.Recv.List[0].Type))
			if rt == cs.wNamed || rt == cs.rNamed {
				cs.excluded[fd] = true
			}
		}
	}
}

// collectDispatchSites scans every non-test file in the program for
// type-switch cases and type assertions that consume a message type,
// keyed by "pkgpath.TypeName" (cross-package units import the codec
// package from export data, so object identity does not hold).
func (cs *codecState) collectDispatchSites() map[string]bool {
	out := make(map[string]bool)
	mark := func(u *Package, texpr ast.Expr) {
		if texpr == nil {
			return
		}
		if key := typeKeyOf(u.TypeOf(texpr)); key != "" {
			out[key] = true
		}
	}
	for _, u := range cs.pass.Prog.Packages {
		for _, f := range u.Files {
			if strings.HasSuffix(cs.pass.Prog.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && cs.excluded[fd] {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.TypeSwitchStmt:
						for _, stmt := range x.Body.List {
							for _, texpr := range stmt.(*ast.CaseClause).List {
								mark(u, texpr)
							}
						}
					case *ast.TypeAssertExpr:
						mark(u, x.Type)
					}
					return true
				})
			}
		}
	}
	return out
}

// checkHelperPairs compares writer/reader helper methods that share a
// name and are both derived (implemented purely in terms of other codec
// ops): their shapes must agree, so an asymmetry inside e.g. strs or
// windowPartials is reported once, at the writer method.
func (cs *codecState) checkHelperPairs() {
	wm := cs.methodDecls(cs.wNamed)
	rm := cs.methodDecls(cs.rNamed)
	var names []string
	for name := range wm {
		if rm[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		wd, rd := wm[name], rm[name]
		wShape, wDerived := cs.helperShape(wd)
		rShape, rDerived := cs.helperShape(rd)
		if !wDerived || !rDerived {
			continue
		}
		if msg, pos := diffShape(wShape, rShape); msg != "" {
			if !pos.IsValid() {
				pos = wd.Pos()
			}
			cs.pass.Reportf("codecsym", pos, "codec asymmetry in helper pair %s: %s", canonicalOp(name), msg)
		}
	}
}

// methodDecls maps canonical method name -> declaration for a receiver
// type, excluding the reader's error plumbing.
func (cs *codecState) methodDecls(recv *types.Named) map[string]*ast.FuncDecl {
	out := make(map[string]*ast.FuncDecl)
	for _, f := range cs.u.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			if namedOf(cs.u.TypeOf(fd.Recv.List[0].Type)) != recv {
				continue
			}
			if fd.Name.Name == "fail" || fd.Name.Name == "finish" {
				continue
			}
			out[canonicalOp(fd.Name.Name)] = fd
		}
	}
	return out
}

// helperShape extracts a writer/reader method's own shape. A method is
// "derived" when it is implemented purely in terms of other codec ops:
// it contains at least one op and never touches the raw buffer/cursor
// state (any assignment to a receiver field other than err makes it a
// primitive leaf).
func (cs *codecState) helperShape(fd *ast.FuncDecl) ([]shapeItem, bool) {
	if fd == nil || fd.Body == nil {
		return nil, false
	}
	recvName := ""
	if len(fd.Recv.List[0].Names) > 0 {
		recvName = fd.Recv.List[0].Names[0].Name
	}
	primitive := false
	touchesRecvState := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name == "err" {
			return false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		return ok && id.Name == recvName
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if touchesRecvState(lhs) {
					primitive = true
				}
			}
		case *ast.IncDecStmt:
			if touchesRecvState(x.X) {
				primitive = true
			}
		}
		return !primitive
	})
	if primitive {
		return nil, false
	}
	shape := cs.extractStmts(fd.Body.List)
	if len(shape) == 0 {
		return nil, false
	}
	// A derived helper's shape would inline itself at every call site; to
	// compare pairs structurally it is enough that the pair agree, so a
	// self-call (recursion) is left as a leaf like any other op.
	return shape, true
}

// --- shape extraction ---

// extractStmts walks a statement list in source order and returns its
// normalized codec shape: ops for writer/reader method calls, repeated
// groups for loops, the happy path through error guards.
func (cs *codecState) extractStmts(stmts []ast.Stmt) []shapeItem {
	var out []shapeItem
	for _, s := range stmts {
		out = append(out, cs.extractStmt(s)...)
	}
	return out
}

func (cs *codecState) extractStmt(s ast.Stmt) []shapeItem {
	switch x := s.(type) {
	case *ast.ExprStmt:
		return cs.extractExpr(x.X)
	case *ast.AssignStmt:
		var out []shapeItem
		for _, rhs := range x.Rhs {
			out = append(out, cs.extractExpr(rhs)...)
		}
		return out
	case *ast.DeclStmt:
		var out []shapeItem
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = append(out, cs.extractExpr(v)...)
					}
				}
			}
		}
		return out
	case *ast.ReturnStmt:
		var out []shapeItem
		for _, r := range x.Results {
			out = append(out, cs.extractExpr(r)...)
		}
		return out
	case *ast.IfStmt:
		var out []shapeItem
		if x.Init != nil {
			out = append(out, cs.extractStmt(x.Init)...)
		}
		out = append(out, cs.extractExpr(x.Cond)...)
		then := cs.extractStmts(x.Body.List)
		var els []shapeItem
		if x.Else != nil {
			els = cs.extractStmt(x.Else)
		}
		// Branches: identical shapes collapse (w.bool's two u8 writes);
		// an empty branch is an error guard — take the other (happy)
		// path; genuinely divergent branches take the then-path.
		switch {
		case equalShape(then, els):
			out = append(out, then...)
		case len(then) == 0:
			out = append(out, els...)
		default:
			out = append(out, then...)
		}
		return out
	case *ast.BlockStmt:
		return cs.extractStmts(x.List)
	case *ast.ForStmt:
		var out []shapeItem
		if x.Init != nil {
			out = append(out, cs.extractStmt(x.Init)...)
		}
		body := cs.extractStmts(x.Body.List)
		if len(body) > 0 {
			out = append(out, shapeItem{pos: x.For, rep: body})
		}
		return out
	case *ast.RangeStmt:
		var out []shapeItem
		out = append(out, cs.extractExpr(x.X)...)
		body := cs.extractStmts(x.Body.List)
		if len(body) > 0 {
			out = append(out, shapeItem{pos: x.For, rep: body})
		}
		return out
	case *ast.SwitchStmt:
		// Rare inside an arm: collapse identical cases, else first
		// non-empty.
		var first []shapeItem
		for _, stmt := range x.Body.List {
			shape := cs.extractStmts(stmt.(*ast.CaseClause).Body)
			if len(shape) > 0 && len(first) == 0 {
				first = shape
			}
		}
		return first
	case *ast.LabeledStmt:
		return cs.extractStmt(x.Stmt)
	}
	return nil
}

// extractExpr collects codec ops from an expression in evaluation order
// (arguments before the call that consumes them, composite-literal
// elements in source order).
func (cs *codecState) extractExpr(e ast.Expr) []shapeItem {
	var out []shapeItem
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				walk(sel.X)
			} else {
				walk(x.Fun)
			}
			for _, a := range x.Args {
				walk(a)
			}
			if op, ok := cs.opOf(x); ok {
				out = append(out, shapeItem{op: op, pos: x.Pos()})
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				walk(elt)
			}
		case *ast.KeyValueExpr:
			walk(x.Value)
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.SliceExpr:
			walk(x.X)
			walk(x.Low)
			walk(x.High)
			walk(x.Max)
		case *ast.TypeAssertExpr:
			walk(x.X)
		}
	}
	walk(e)
	return out
}

// opOf reports whether a call is a codec op: a method call on the
// package's writer or reader type, minus the error plumbing.
func (cs *codecState) opOf(call *ast.CallExpr) (string, bool) {
	fn := funcFor(cs.u, call.Fun)
	if fn == nil || fn.Pkg() != cs.u.Types {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := namedOf(sig.Recv().Type())
	if recv != cs.wNamed && recv != cs.rNamed {
		return "", false
	}
	name := fn.Name()
	if name == "fail" || name == "finish" {
		return "", false
	}
	return canonicalOp(name), true
}

// canonicalOp folds naming drift between the sides (the writer's bool
// pairs with the reader's boolv).
func canonicalOp(name string) string {
	if name == "boolv" {
		return "bool"
	}
	return name
}

func equalShape(a, b []shapeItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].op != b[i].op {
			return false
		}
		if (a[i].rep != nil) != (b[i].rep != nil) {
			return false
		}
		if a[i].rep != nil && !equalShape(a[i].rep, b[i].rep) {
			return false
		}
	}
	return true
}

// diffShape reports the first divergence between an encode shape and the
// matching decode shape, with the position of the offending element.
func diffShape(enc, dec []shapeItem) (string, token.Pos) {
	for i := 0; i < len(enc) || i < len(dec); i++ {
		if i >= len(enc) {
			d := dec[i]
			return fmt.Sprintf("decode reads %s (element %d) that encode never writes", describeItem(d), i+1), d.pos
		}
		if i >= len(dec) {
			e := enc[i]
			return fmt.Sprintf("encode writes %s (element %d) that decode never reads", describeItem(e), i+1), e.pos
		}
		e, d := enc[i], dec[i]
		switch {
		case e.rep != nil && d.rep != nil:
			if msg, pos := diffShape(e.rep, d.rep); msg != "" {
				return "inside repeated group: " + msg, pos
			}
		case e.rep != nil:
			return fmt.Sprintf("element %d: encode writes a repeated group but decode reads %s", i+1, d.op), d.pos
		case d.rep != nil:
			return fmt.Sprintf("element %d: encode writes %s but decode reads a repeated group", i+1, e.op), e.pos
		case e.op != d.op:
			return fmt.Sprintf("element %d: encode writes %s but decode reads %s", i+1, e.op, d.op), d.pos
		}
	}
	return "", token.NoPos
}

// typeNameOf resolves a type-switch case expression to the *types.TypeName
// it names (unwrapping pointers), or nil.
func typeNameOf(u *Package, texpr ast.Expr) *types.TypeName {
	n := namedOf(u.TypeOf(texpr))
	if n == nil {
		return nil
	}
	return n.Obj()
}

// firstTypeSwitch finds the outermost type switch in a body.
func firstTypeSwitch(body *ast.BlockStmt) *ast.TypeSwitchStmt {
	var found *ast.TypeSwitchStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if tsw, ok := n.(*ast.TypeSwitchStmt); ok {
			found = tsw
			return false
		}
		return true
	})
	return found
}

// firstTagSwitch finds the outermost value switch (the tag dispatch) in
// a body.
func firstTagSwitch(body *ast.BlockStmt) *ast.SwitchStmt {
	var found *ast.SwitchStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
			found = sw
			return false
		}
		return true
	})
	return found
}
