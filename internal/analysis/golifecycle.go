package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLifecycleAnalyzer checks that goroutines spawned in long-lived
// components cannot be stranded: shard or coordinator churn must not
// leak service loops. Packages opt in with //scrub:longlived in their
// package doc (server, coord, host, replay in this tree). Every `go`
// statement in their non-test files must show one of:
//
//   - a sync.WaitGroup.Done in the spawned body (tracked shutdown);
//   - a channel stop path: a receive (<-ch, select with a receive case,
//     range over a channel), through which a close/ctx-done can end it;
//   - an event loop: an unconditional `for` whose body can exit via
//     return, break, or a labeled branch to a label outside it — the
//     connection-serve shape, which ends when its runtime source (conn,
//     queue) is closed.
//
// An unconditional `for` with no reachable exit is flagged regardless
// of other evidence, and so is a go statement whose target cannot be
// statically resolved (a func value). There is no escape hatch: a
// goroutine the check cannot see end gets a stop path.
var GoLifecycleAnalyzer = &Analyzer{
	Name: "golifecycle",
	Doc:  "go statements in //scrub:longlived packages need a reachable stop path",
	Run:  runGoLifecycle,
}

func runGoLifecycle(pass *Pass) {
	for _, u := range pass.Prog.Packages {
		if !pass.Prog.Ann.LongLivedPkgs[u.Path] {
			continue
		}
		for _, f := range u.Files {
			if strings.HasSuffix(pass.Prog.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, u, g)
				}
				return true
			})
		}
	}
}

func checkGoStmt(pass *Pass, u *Package, g *ast.GoStmt) {
	bodyPkg, body := resolveSpawnBody(pass, u, g.Call)
	if body == nil {
		pass.Reportf("golifecycle", g.Pos(),
			"cannot statically resolve the function this goroutine runs; spawn a function literal or a named function, and give it a stop path")
		return
	}
	ev := scanLifecycle(bodyPkg, body)
	if ev.badLoop.IsValid() {
		pass.Reportf("golifecycle", g.Pos(),
			"goroutine loops forever with no stop path (loop at %s): no return, break, or terminating condition ever exits it",
			pass.Prog.Fset.Position(ev.badLoop))
		return
	}
	if ev.wgDone || ev.receive || ev.eventLoop {
		return
	}
	pass.Reportf("golifecycle", g.Pos(),
		"goroutine has no tracked lifecycle: no WaitGroup.Done, no channel stop path; give it a stop path")
}

// resolveSpawnBody finds the block a go statement runs: a function
// literal's body, or the declaration of a statically-named function,
// following single-call wrappers a few levels deep.
func resolveSpawnBody(pass *Pass, u *Package, call *ast.CallExpr) (*Package, *ast.BlockStmt) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return u, lit.Body
	}
	pkg, body := u, (*ast.BlockStmt)(nil)
	cur := call
	for depth := 0; depth < 3; depth++ {
		fn := funcFor(pkg, cur.Fun)
		if fn == nil {
			return nil, nil
		}
		node := pass.Prog.Funcs[fn.FullName()]
		if node == nil {
			return nil, nil
		}
		pkg, body = node.Pkg, node.Decl.Body
		// Thin wrapper: a body that only forwards to another call.
		if body != nil && len(body.List) == 1 {
			if es, ok := body.List[0].(*ast.ExprStmt); ok {
				if inner, ok := es.X.(*ast.CallExpr); ok {
					cur = inner
					continue
				}
			}
		}
		break
	}
	return pkg, body
}

// lifeEvidence is what the body scan finds.
type lifeEvidence struct {
	wgDone    bool      // sync.WaitGroup.Done reachable in the body
	receive   bool      // any channel receive (<-ch, select, range ch)
	eventLoop bool      // unconditional for with an exit path
	badLoop   token.Pos // unconditional for with NO exit path
}

// scanLifecycle walks a spawned body, skipping nested go statements
// (each is checked at its own site) but descending into function
// literals (deferred cleanups run on this goroutine).
func scanLifecycle(u *Package, body *ast.BlockStmt) lifeEvidence {
	var ev lifeEvidence
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return !skip[n]
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			skip[x.Call] = true
		case *ast.CallExpr:
			if isWaitGroupDone(u, x) {
				ev.wgDone = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ev.receive = true
			}
		case *ast.RangeStmt:
			if t := u.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					ev.receive = true
				}
			}
		case *ast.ForStmt:
			if x.Cond == nil {
				if loopHasExit(x) {
					ev.eventLoop = true
				} else if !ev.badLoop.IsValid() {
					ev.badLoop = x.For
				}
			}
		}
		return true
	})
	return ev
}

func isWaitGroupDone(u *Package, call *ast.CallExpr) bool {
	fn := funcFor(u, call.Fun)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Done" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Name() == "WaitGroup"
}

// loopHasExit reports whether an unconditional for loop contains a
// statement that leaves it: a return, an unlabeled break bound to this
// loop (not to a nested loop, switch, or select), or a labeled break,
// continue or goto whose label is not declared inside the loop — a
// branch can only name a statement around it or, for goto, one in a
// block around it, so a label from outside the loop takes the branch out
// of it.
func loopHasExit(loop *ast.ForStmt) bool {
	inner := make(map[string]bool)
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.LabeledStmt); ok {
			inner[l.Label.Name] = true
		}
		_, lit := n.(*ast.FuncLit) // a function literal's labels are its own
		return !lit
	})
	exit := false
	// breakDepth counts enclosing break-consuming statements inside the
	// loop; an unlabeled break exits our loop only at depth zero.
	var walk func(n ast.Stmt, breakDepth int)
	walkBody := func(list []ast.Stmt, depth int) {
		for _, s := range list {
			walk(s, depth)
		}
	}
	walk = func(n ast.Stmt, breakDepth int) {
		if exit || n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.ReturnStmt:
			exit = true
		case *ast.BranchStmt:
			if x.Label != nil {
				exit = !inner[x.Label.Name]
			} else {
				exit = x.Tok == token.BREAK && breakDepth == 0
			}
		case *ast.BlockStmt:
			walkBody(x.List, breakDepth)
		case *ast.IfStmt:
			walk(x.Body, breakDepth)
			walk(x.Else, breakDepth)
		case *ast.ForStmt:
			walk(x.Body, breakDepth+1)
		case *ast.RangeStmt:
			walk(x.Body, breakDepth+1)
		case *ast.SwitchStmt:
			walkBody(x.Body.List, breakDepth+1)
		case *ast.TypeSwitchStmt:
			walkBody(x.Body.List, breakDepth+1)
		case *ast.SelectStmt:
			walkBody(x.Body.List, breakDepth+1)
		case *ast.CaseClause:
			walkBody(x.Body, breakDepth)
		case *ast.CommClause:
			walkBody(x.Body, breakDepth)
		case *ast.LabeledStmt:
			walk(x.Stmt, breakDepth)
		}
	}
	walkBody(loop.Body.List, 0)
	return exit
}
