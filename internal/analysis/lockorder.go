package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer defends the fabric's locking discipline two ways:
//
//  1. Lock-order cycles. Every sync.Mutex/RWMutex acquisition is a node
//     keyed by its declaring struct field ("pkg.Type.mu") or package
//     var; acquiring B while holding A (directly, or anywhere in the
//     static call graph of a call made while holding A) is an edge
//     A → B. A cycle among distinct locks means two goroutines can
//     acquire them in opposite orders and deadlock — the classic
//     coordinator ↔ router ↔ hub hazard.
//
//  2. Unreleased-lock paths. A per-function abstract walk forks at
//     branches and tracks the held set (with deferred releases): any
//     path that returns, panics, or falls off the end still holding a
//     lock acquired in that function is reported, as is re-acquiring a
//     lock already held on the path (self-deadlock, including
//     RLock→Lock upgrades) and unlocking a lock no path holds.
//     Functions named *Locked may release locks their caller holds.
//     A function the walk cannot follow (a goto, or more than
//     lockStateCap states at one point) is reported, not passed.
//
// Dynamic calls (func values, interface methods) are not chased; a
// hook that acquires locks behind a func field needs a code-review eye.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "static lock-acquisition graph: flag order cycles and acquire-without-release paths",
	Run:  runLockOrder,
}

// lockStateCap bounds the abstract-state fan-out per function; beyond
// it the function is reported rather than half-analyzed.
const lockStateCap = 64

func runLockOrder(pass *Pass) {
	lo := &lockOrder{
		pass:     pass,
		acquires: make(map[string]map[string]bool),
		callees:  make(map[string][]string),
		reach:    make(map[string]map[string]string),
		edges:    make(map[string]map[string]edgeInfo),
		reported: make(map[string]bool),
	}
	lo.summarize()
	lo.computeReach()
	lo.walkAll()
	lo.reportCycles()
}

type edgeInfo struct {
	pos token.Pos
	fn  string
}

type lockOrder struct {
	pass *Pass
	// acquires: FullName -> lock keys the body itself Lock/RLocks.
	acquires map[string]map[string]bool
	// callees: FullName -> statically-resolved called FullNames.
	callees map[string][]string
	// reach: FullName -> key -> first callee FullName on a path that
	// acquires key ("" when acquired directly).
	reach map[string]map[string]string
	// edges: held key -> acquired key -> first witness.
	edges    map[string]map[string]edgeInfo
	reported map[string]bool
}

func (lo *lockOrder) reportOnce(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	k := fmt.Sprintf("%d|%s", pos, msg)
	if lo.reported[k] {
		return
	}
	lo.reported[k] = true
	lo.pass.Reportf("lockorder", pos, "%s", msg)
}

// --- lock-event plumbing ---

// lockMethod classifies a call as a sync.Mutex/RWMutex operation.
type lockMethod struct {
	acquire bool
	read    bool
	try     bool
}

func classifyLockCall(u *Package, call *ast.CallExpr) (*ast.SelectorExpr, lockMethod, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, lockMethod{}, false
	}
	fn := funcFor(u, call.Fun)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, lockMethod{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, lockMethod{}, false
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || (recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return nil, lockMethod{}, false
	}
	switch fn.Name() {
	case "Lock":
		return sel, lockMethod{acquire: true}, true
	case "RLock":
		return sel, lockMethod{acquire: true, read: true}, true
	case "TryLock":
		return sel, lockMethod{acquire: true, try: true}, true
	case "TryRLock":
		return sel, lockMethod{acquire: true, read: true, try: true}, true
	case "Unlock":
		return sel, lockMethod{}, true
	case "RUnlock":
		return sel, lockMethod{read: true}, true
	}
	return nil, lockMethod{}, false
}

// lockRecvKey renders the lock receiver ("c.mu") and resolves its graph
// key: the declaring struct field, a package-level var, or "" for
// locals (tracked by expression only, no graph node).
func lockRecvKey(u *Package, sel *ast.SelectorExpr) (string, string) {
	expr := types.ExprString(sel.X)
	// Promoted method on an embedded mutex: t.Lock() — the selection
	// path's field prefix names the embedded field.
	if s, ok := u.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && len(s.Index()) > 1 {
		return expr, fieldPathKey(s.Recv(), s.Index()[:len(s.Index())-1])
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := u.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return expr, fieldPathKey(s.Recv(), s.Index())
		}
	case *ast.Ident:
		if v, ok := objOf(u, x).(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return expr, v.Pkg().Path() + "." + v.Name()
		}
	}
	return expr, ""
}

// fieldPathKey follows a selection's field path from t through its
// embedded structs and keys the last field on the struct type that
// declares it ("pkg.Type.mu"), or "" when that type is unnamed.
func fieldPathKey(t types.Type, path []int) string {
	for i, f := range path {
		st := structUnder(t)
		if st == nil {
			return ""
		}
		if i == len(path)-1 {
			return fieldKeyOf(t, st.Field(f).Name())
		}
		t = st.Field(f).Type()
	}
	return ""
}

func structUnder(t types.Type) *types.Struct {
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	st, _ := u.(*types.Struct)
	return st
}

// --- phase 1: per-function summaries + transitive reach ---

func (lo *lockOrder) summarize() {
	var names []string
	for name := range lo.pass.Prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		node := lo.pass.Prog.Funcs[name]
		acq := make(map[string]bool)
		var calls []string
		inspectSync(node.Decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if sel, m, ok := classifyLockCall(node.Pkg, call); ok {
				if m.acquire {
					if _, key := lockRecvKey(node.Pkg, sel); key != "" {
						acq[key] = true
					}
				}
				return
			}
			if fn := funcFor(node.Pkg, call.Fun); fn != nil {
				calls = append(calls, fn.FullName())
			}
		})
		lo.acquires[name] = acq
		lo.callees[name] = calls
	}
}

// inspectSync visits the synchronously-executed parts of a body: it
// descends everywhere except into go-statement call bodies (those run
// on another goroutine, outside the caller's held set).
func inspectSync(body *ast.BlockStmt, visit func(ast.Node)) {
	if body == nil {
		return
	}
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return !skip[n]
		}
		if g, ok := n.(*ast.GoStmt); ok {
			skip[g.Call] = true
			// Still visit the go statement itself; its spawned body is
			// analyzed as its own function.
			visit(n)
			return true
		}
		visit(n)
		return true
	})
}

// computeReach closes the acquire sets over the static call graph.
// Iteration is over sorted names (and sorted callee keys) so the `via`
// witness recorded for each reachable lock is deterministic.
func (lo *lockOrder) computeReach() {
	var names []string
	for name := range lo.acquires {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := make(map[string]string)
		for k := range lo.acquires[name] {
			r[k] = ""
		}
		lo.reach[name] = r
	}
	for changed := true; changed; {
		changed = false
		for _, name := range names {
			r := lo.reach[name]
			for _, callee := range lo.callees[name] {
				var keys []string
				for k := range lo.reach[callee] {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					if _, ok := r[k]; !ok {
						r[k] = callee
						changed = true
					}
				}
			}
		}
	}
}

// reachChain renders the call path through which fn reaches key.
func (lo *lockOrder) reachChain(fn, key string) string {
	var steps []string
	for depth := 0; depth < 8; depth++ {
		via := lo.reach[fn][key]
		if via == "" {
			break
		}
		steps = append(steps, shortFunc(via))
		fn = via
	}
	if len(steps) == 0 {
		return "directly"
	}
	return "via " + strings.Join(steps, " → ")
}

// shortFunc trims a types.Func FullName — "(*scrub/internal/coord.Coordinator).StartQuery"
// — down to "(*coord.Coordinator).StartQuery".
func shortFunc(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		prefix := full[:i]
		// Keep any leading "(" / "(*" that precedes the package path.
		lead := ""
		for _, r := range prefix {
			if r == '(' || r == '*' {
				lead += string(r)
			} else {
				break
			}
		}
		return lead + full[i+1:]
	}
	return full
}

// --- phase 2: per-function abstract walk ---

func (lo *lockOrder) walkAll() {
	var names []string
	for name := range lo.pass.Prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		node := lo.pass.Prog.Funcs[name]
		lo.walkFunc(node.Pkg, name, node.Decl.Body, strings.HasSuffix(node.Decl.Name.Name, "Locked"))
		// Function literals (closures, goroutine bodies, deferred
		// cleanups) must balance their own acquisitions too. They are
		// walked as locked functions: a deferred cleanup closure
		// legitimately releases locks its enclosing function holds.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lo.walkFunc(node.Pkg, name+"·lit", lit.Body, true)
			}
			return true
		})
	}
}

type heldLock struct {
	expr string
	key  string
	read bool
	pos  token.Pos
}

type lockState struct {
	held     []heldLock
	deferred []heldLock // releases registered by defer (expr+read only)
}

func (s lockState) clone() lockState {
	return lockState{
		held:     append([]heldLock(nil), s.held...),
		deferred: append([]heldLock(nil), s.deferred...),
	}
}

func (s lockState) sig() string {
	var b strings.Builder
	for _, h := range s.held {
		fmt.Fprintf(&b, "%s/%v;", h.expr, h.read)
	}
	b.WriteByte('|')
	for _, d := range s.deferred {
		fmt.Fprintf(&b, "%s/%v;", d.expr, d.read)
	}
	return b.String()
}

// leftover returns the held locks a return would leak: held minus one
// deferred release per matching expression.
func (s lockState) leftover() []heldLock {
	rem := append([]heldLock(nil), s.held...)
	for _, d := range s.deferred {
		for i, h := range rem {
			if h.expr == d.expr {
				rem = append(rem[:i], rem[i+1:]...)
				break
			}
		}
	}
	return rem
}

func mergeStates(sets ...[]lockState) []lockState {
	seen := make(map[string]bool)
	var out []lockState
	for _, set := range sets {
		for _, s := range set {
			k := s.sig()
			if !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// branchCtx is one enclosing breakable statement during the walk.
type branchCtx struct {
	isLoop bool
	label  string
	breaks []lockState
	conts  []lockState
}

type lockWalker struct {
	lo     *lockOrder
	u      *Package
	fnName string
	locked bool
	stack  []*branchCtx
	// label names the statement walkStmt is about to walk, set by its
	// LabeledStmt arm for the loop, switch or select it labels.
	label   string
	aborted bool
}

func (lo *lockOrder) walkFunc(u *Package, fnName string, body *ast.BlockStmt, locked bool) {
	if body == nil {
		return
	}
	lw := &lockWalker{lo: lo, u: u, fnName: fnName, locked: locked}
	out := lw.walkStmts(body.List, []lockState{{}})
	if lw.aborted {
		return // reported where the walk stopped
	}
	for _, s := range out {
		for _, h := range s.leftover() {
			lo.reportOnce(body.Rbrace, "function ends while holding %s (acquired at %s)",
				h.expr, lo.pass.Prog.Fset.Position(h.pos))
		}
	}
}

func (lw *lockWalker) walkStmts(stmts []ast.Stmt, in []lockState) []lockState {
	states := in
	for _, s := range stmts {
		states = lw.walkStmt(s, states)
		if len(states) > lockStateCap {
			lw.abort(s.Pos(), "more than %d lock states reach this statement, so lockorder cannot check %s: split it",
				lockStateCap, shortFunc(lw.fnName))
			return nil
		}
	}
	return states
}

// abort ends the walk of a function it cannot follow, with a finding:
// lockorder fails closed rather than pass what it did not check.
func (lw *lockWalker) abort(pos token.Pos, format string, args ...any) {
	lw.aborted = true
	lw.lo.reportOnce(pos, format, args...)
}

// push opens a breakable statement's context, under the label that
// names it, if any.
func (lw *lockWalker) push(isLoop bool, label string) *branchCtx {
	ctx := &branchCtx{isLoop: isLoop, label: label}
	lw.stack = append(lw.stack, ctx)
	return ctx
}

func (lw *lockWalker) pop() { lw.stack = lw.stack[:len(lw.stack)-1] }

func (lw *lockWalker) walkStmt(s ast.Stmt, in []lockState) []lockState {
	label := lw.label
	lw.label = ""
	if len(in) == 0 || lw.aborted {
		// Unreachable continuation (every path returned), or a walk
		// already given up; nothing to do.
		return nil
	}
	switch x := s.(type) {
	case *ast.ExprStmt:
		return lw.applyExpr(x.X, in)
	case *ast.SendStmt:
		return lw.applyExpr(x.Value, lw.applyExpr(x.Chan, in))
	case *ast.IncDecStmt:
		return lw.applyExpr(x.X, in)
	case *ast.AssignStmt:
		states := in
		for _, rhs := range x.Rhs {
			states = lw.applyExpr(rhs, states)
		}
		return states
	case *ast.DeclStmt:
		states := in
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						states = lw.applyExpr(v, states)
					}
				}
			}
		}
		return states
	case *ast.ReturnStmt:
		states := in
		for _, r := range x.Results {
			states = lw.applyExpr(r, states)
		}
		for _, st := range states {
			for _, h := range st.leftover() {
				lw.lo.reportOnce(x.Pos(), "returns while holding %s (acquired at %s); no defer releases it",
					h.expr, lw.lo.pass.Prog.Fset.Position(h.pos))
			}
		}
		return nil
	case *ast.DeferStmt:
		states := in
		for _, a := range x.Call.Args {
			states = lw.applyExpr(a, states)
		}
		rels := deferredReleases(lw.u, x)
		if len(rels) == 0 {
			return states
		}
		out := make([]lockState, 0, len(states))
		for _, st := range states {
			ns := st.clone()
			ns.deferred = append(ns.deferred, rels...)
			out = append(out, ns)
		}
		return mergeStates(out)
	case *ast.GoStmt:
		// The spawned body runs elsewhere; its literal is walked as its
		// own function in walkAll.
		return in
	case *ast.BlockStmt:
		return lw.walkStmts(x.List, in)
	case *ast.IfStmt:
		states := in
		if x.Init != nil {
			states = lw.walkStmt(x.Init, states)
		}
		// `if mu.TryLock()` / `if !mu.TryLock()`: the acquisition is
		// correlated with the branch taken, so the held fork must flow
		// into exactly one arm, not both.
		if sel, m, neg, ok := tryLockCond(lw.u, x.Cond); ok {
			expr, key := lockRecvKey(lw.u, sel)
			held := lw.applyEvent(lockEvent{
				sel: sel, m: lockMethod{acquire: true, read: m.read},
				expr: expr, key: key, pos: x.Cond.Pos(),
			}, states)
			thenIn, elseIn := held, states
			if neg {
				thenIn, elseIn = states, held
			}
			thenOut := lw.walkStmts(x.Body.List, thenIn)
			elseOut := elseIn
			if x.Else != nil {
				elseOut = lw.walkStmt(x.Else, elseIn)
			}
			return mergeStates(thenOut, elseOut)
		}
		states = lw.applyExpr(x.Cond, states)
		thenOut := lw.walkStmts(x.Body.List, states)
		elseOut := states
		if x.Else != nil {
			elseOut = lw.walkStmt(x.Else, states)
		}
		return mergeStates(thenOut, elseOut)
	case *ast.SwitchStmt:
		states := in
		if x.Init != nil {
			states = lw.walkStmt(x.Init, states)
		}
		if x.Tag != nil {
			states = lw.applyExpr(x.Tag, states)
		}
		return lw.walkCases(label, x.Body, states)
	case *ast.TypeSwitchStmt:
		states := in
		if x.Init != nil {
			states = lw.walkStmt(x.Init, states)
		}
		return lw.walkCases(label, x.Body, states)
	case *ast.SelectStmt:
		ctx := lw.push(false, label)
		var outs [][]lockState
		for _, cl := range x.Body.List {
			cc := cl.(*ast.CommClause)
			st := in
			if cc.Comm != nil {
				st = lw.walkStmt(cc.Comm, st)
			}
			outs = append(outs, lw.walkStmts(cc.Body, st))
		}
		lw.pop()
		return mergeStates(append(outs, ctx.breaks)...)
	case *ast.ForStmt:
		st := in
		if x.Init != nil {
			st = lw.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			st = lw.applyExpr(x.Cond, st)
		}
		return lw.walkLoop(label, x.Body, st, x.Cond != nil)
	case *ast.RangeStmt:
		return lw.walkLoop(label, x.Body, lw.applyExpr(x.X, in), true)
	case *ast.LabeledStmt:
		lw.label = x.Label.Name
		return lw.walkStmt(x.Stmt, in)
	case *ast.BranchStmt:
		switch x.Tok {
		case token.BREAK:
			if ctx := lw.findBreakable(x.Label); ctx != nil {
				ctx.breaks = append(ctx.breaks, in...)
			}
			return nil
		case token.CONTINUE:
			if ctx := lw.findLoop(x.Label); ctx != nil {
				ctx.conts = append(ctx.conts, in...)
			}
			return nil
		case token.GOTO:
			lw.abort(x.Pos(), "lockorder does not follow goto, so it cannot check %s: use a loop or a labeled break",
				shortFunc(lw.fnName))
			return nil
		}
		return in
	}
	return in
}

// tryLockCond matches an if condition that is exactly a TryLock or
// TryRLock call, optionally negated.
func tryLockCond(u *Package, cond ast.Expr) (sel *ast.SelectorExpr, m lockMethod, neg bool, ok bool) {
	e := ast.Unparen(cond)
	if ue, isNot := e.(*ast.UnaryExpr); isNot && ue.Op == token.NOT {
		neg = true
		e = ast.Unparen(ue.X)
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, lockMethod{}, false, false
	}
	sel, m, ok = classifyLockCall(u, call)
	if !ok || !m.try || !m.acquire {
		return nil, lockMethod{}, false, false
	}
	return sel, m, neg, true
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// walkCases unions the per-case outcomes; without a default clause the
// incoming states survive too (no case taken). A clause that ends in
// fallthrough hands its states to the next clause's body.
func (lw *lockWalker) walkCases(label string, body *ast.BlockStmt, in []lockState) []lockState {
	ctx := lw.push(false, label)
	var outs [][]lockState
	var carry []lockState
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		st := in
		for _, e := range cc.List {
			st = lw.applyExpr(e, st)
		}
		out := lw.walkStmts(cc.Body, mergeStates(st, carry))
		carry = nil
		if n := len(cc.Body); n > 0 && isFallthrough(cc.Body[n-1]) {
			carry = out
		} else {
			outs = append(outs, out)
		}
	}
	lw.pop()
	if !hasDefaultClause(body) {
		outs = append(outs, in)
	}
	return mergeStates(append(outs, ctx.breaks)...)
}

func isFallthrough(s ast.Stmt) bool {
	b, ok := s.(*ast.BranchStmt)
	return ok && b.Tok == token.FALLTHROUGH
}

// walkLoop walks a loop body twice (the second pass feeds the first
// pass's exit states back in, so a Lock left held across an iteration
// boundary is seen re-acquiring itself) and merges zero-iteration,
// fall-out, break, and continue states.
func (lw *lockWalker) walkLoop(label string, body *ast.BlockStmt, in []lockState, condExits bool) []lockState {
	ctx := lw.push(true, label)
	first := lw.walkStmts(body.List, in)
	again := mergeStates(in, first, ctx.conts)
	second := lw.walkStmts(body.List, again)
	lw.pop()
	if !condExits {
		// `for { ... }`: only a break leaves it; with none, code after
		// the loop is unreachable.
		return mergeStates(ctx.breaks)
	}
	// The loop condition can go false: body-exit states escape.
	return mergeStates(ctx.breaks, in, first, second, ctx.conts)
}

func (lw *lockWalker) findBreakable(label *ast.Ident) *branchCtx {
	for i := len(lw.stack) - 1; i >= 0; i-- {
		if label == nil || lw.stack[i].label == label.Name {
			return lw.stack[i]
		}
	}
	return nil
}

func (lw *lockWalker) findLoop(label *ast.Ident) *branchCtx {
	for i := len(lw.stack) - 1; i >= 0; i-- {
		if lw.stack[i].isLoop && (label == nil || lw.stack[i].label == label.Name) {
			return lw.stack[i]
		}
	}
	return nil
}

// lockEvent is one state-affecting action inside a simple statement.
type lockEvent struct {
	sel  *ast.SelectorExpr // lock op receiver (nil for plain calls)
	m    lockMethod
	expr string
	key  string
	call *types.Func // non-lock call, statically resolved
	pos  token.Pos
}

// applyExpr extracts the lock operations and calls inside an expression
// (in evaluation order, skipping function literals and go bodies) and
// folds them through the states.
func (lw *lockWalker) applyExpr(e ast.Expr, in []lockState) []lockState {
	if e == nil || len(in) == 0 {
		return in
	}
	var events []lockEvent
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, m, ok := classifyLockCall(lw.u, call); ok {
			expr, key := lockRecvKey(lw.u, sel)
			events = append(events, lockEvent{sel: sel, m: m, expr: expr, key: key, pos: call.Pos()})
			return true
		}
		if isPanicCall(lw.u, call) {
			events = append(events, lockEvent{pos: call.Pos(), expr: "panic"})
			return true
		}
		if fn := funcFor(lw.u, call.Fun); fn != nil {
			events = append(events, lockEvent{call: fn, pos: call.Pos()})
		}
		return true
	})
	states := in
	for _, ev := range events {
		states = lw.applyEvent(ev, states)
		if len(states) == 0 {
			return states
		}
	}
	return states
}

func isPanicCall(u *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := objOf(u, id).(*types.Builtin)
	return isBuiltin
}

func (lw *lockWalker) applyEvent(ev lockEvent, in []lockState) []lockState {
	lo := lw.lo
	fset := lo.pass.Prog.Fset
	switch {
	case ev.sel != nil && ev.m.acquire:
		var out []lockState
		for _, st := range in {
			for _, h := range st.held {
				if h.expr == ev.expr && !(h.read && ev.m.read) {
					lo.reportOnce(ev.pos, "lock %s is already held on this path (acquired at %s); re-acquiring it deadlocks",
						ev.expr, fset.Position(h.pos))
				}
				// Order edge: held -> acquired, between distinct keys.
				if h.key != "" && ev.key != "" && h.key != ev.key {
					lo.addEdge(h.key, ev.key, ev.pos, lw.fnName)
				}
			}
			ns := st.clone()
			ns.held = append(ns.held, heldLock{expr: ev.expr, key: ev.key, read: ev.m.read, pos: ev.pos})
			if ev.m.try {
				out = append(out, st) // Try* may fail: the unlocked state survives
			}
			out = append(out, ns)
		}
		return mergeStates(out)

	case ev.sel != nil:
		// Release. Only report unlock-without-hold when *no* path holds
		// it (a conditional Lock forks a non-holding state that must not
		// misfire here), and never inside *Locked functions, which
		// release locks their caller took.
		anyHeld := false
		for _, st := range in {
			for _, h := range st.held {
				if h.expr == ev.expr {
					anyHeld = true
				}
			}
		}
		if !anyHeld && !lw.locked {
			lo.reportOnce(ev.pos, "unlock of %s which is not held on any path here (missing Lock or double Unlock)", ev.expr)
			return in
		}
		var out []lockState
		for _, st := range in {
			ns := st.clone()
			for i, h := range ns.held {
				if h.expr == ev.expr {
					ns.held = append(ns.held[:i], ns.held[i+1:]...)
					break
				}
			}
			out = append(out, ns)
		}
		return mergeStates(out)

	case ev.expr == "panic":
		for _, st := range in {
			for _, h := range st.leftover() {
				lo.reportOnce(ev.pos, "panics while holding %s (acquired at %s); no defer releases it",
					h.expr, fset.Position(h.pos))
			}
		}
		return nil

	case ev.call != nil:
		full := ev.call.FullName()
		reach := lo.reach[full]
		if len(reach) == 0 {
			return in
		}
		var keys []string
		for k := range reach {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, st := range in {
			if len(st.held) == 0 {
				continue
			}
			for _, h := range st.held {
				if h.key == "" {
					continue
				}
				for _, k := range keys {
					if k == h.key {
						lo.reportOnce(ev.pos, "calls %s while holding %s; its call graph re-acquires %s (%s) — potential self-deadlock",
							shortFunc(full), h.expr, k, lo.reachChain(full, k))
					} else {
						lo.addEdge(h.key, k, ev.pos, lw.fnName)
					}
				}
			}
		}
		return in
	}
	return in
}

// deferredReleases extracts the unlocks a defer statement will run: a
// direct mu.Unlock() or any unlock inside a deferred function literal.
func deferredReleases(u *Package, d *ast.DeferStmt) []heldLock {
	var out []heldLock
	if sel, m, ok := classifyLockCall(u, d.Call); ok && !m.acquire {
		expr, key := lockRecvKey(u, sel)
		out = append(out, heldLock{expr: expr, key: key, read: m.read})
		return out
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != lit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, m, ok := classifyLockCall(u, call); ok && !m.acquire {
					expr, key := lockRecvKey(u, sel)
					out = append(out, heldLock{expr: expr, key: key, read: m.read})
				}
			}
			return true
		})
	}
	return out
}

// --- phase 3: cycle detection over the key graph ---

func (lo *lockOrder) addEdge(from, to string, pos token.Pos, fn string) {
	m := lo.edges[from]
	if m == nil {
		m = make(map[string]edgeInfo)
		lo.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = edgeInfo{pos: pos, fn: fn}
	}
}

func (lo *lockOrder) reportCycles() {
	// Tarjan SCCs over the edge graph; every SCC with more than one lock
	// is an acquisition-order cycle.
	var nodes []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range lo.edges {
		add(from)
		for to := range tos {
			add(to)
		}
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var tos []string
		for to := range lo.edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	fset := lo.pass.Prog.Fset
	for _, scc := range sccs {
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var witness []string
		var pos token.Pos
		for _, from := range scc {
			var tos []string
			for to := range lo.edges[from] {
				if inSCC[to] {
					tos = append(tos, to)
				}
			}
			sort.Strings(tos)
			for _, to := range tos {
				e := lo.edges[from][to]
				if !pos.IsValid() || e.pos < pos {
					pos = e.pos
				}
				witness = append(witness, fmt.Sprintf("%s → %s in %s at %s", from, to, shortFunc(e.fn), fset.Position(e.pos)))
			}
		}
		lo.reportOnce(pos, "lock-order cycle among {%s}: %s — concurrent goroutines taking these in different orders deadlock",
			strings.Join(scc, ", "), strings.Join(witness, "; "))
	}
}
