package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Diagnostic is one finding: where, which contract, and what was
// violated.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-run context handed to an analyzer. Analyzers are
// whole-program: each Run sees every loaded unit (the hot-path call
// graph and duplicate-metric checks are inherently cross-package).
type Pass struct {
	Prog   *Program
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless a line-level suppression
// (//scrub:allowalloc for hotpath, //scrub:allowretain for poolsafe)
// covers it.
func (p *Pass) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.Ann.Allowed(analyzer, position.Filename, position.Line) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)})
}

// TypeOf is Info.Types[e].Type across whichever unit declared e's file;
// the caller passes the owning unit.
func (u *Package) TypeOf(e ast.Expr) types.Type {
	if tv, ok := u.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := u.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := u.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Analyzer is one named contract checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full scrubvet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAnalyzer,
		PoolSafeAnalyzer,
		MetricNameAnalyzer,
		LockOrderAnalyzer,
		GoLifecycleAnalyzer,
	}
}

// Run executes the analyzers concurrently over the shared program —
// type-checked packages are read-only here, and each pass reports into
// its own slice — then merges the deduped, position-sorted findings.
// On a single-CPU machine goroutine fan-out is pure scheduling overhead
// (measured ~15% slower in BenchmarkRun*), so Run falls back to
// sequential execution when GOMAXPROCS is 1.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	if runtime.GOMAXPROCS(0) == 1 {
		return run(prog, analyzers, 1)
	}
	return run(prog, analyzers, 0)
}

func run(prog *Program, analyzers []*Analyzer, parallelism int) []Diagnostic {
	results := make([][]Diagnostic, len(analyzers))
	if parallelism == 1 {
		for i, a := range analyzers {
			results[i] = runOne(prog, a)
		}
	} else {
		var wg sync.WaitGroup
		for i, a := range analyzers {
			wg.Add(1)
			go func(i int, a *Analyzer) {
				defer wg.Done()
				results[i] = runOne(prog, a)
			}(i, a)
		}
		wg.Wait()
	}
	seen := make(map[string]bool)
	var out []Diagnostic
	for _, diags := range results {
		for _, d := range diags {
			key := fmt.Sprintf("%s:%d:%d|%s|%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			if !seen[key] {
				seen[key] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

func runOne(prog *Program, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{Prog: prog, report: func(d Diagnostic) {
		diags = append(diags, d)
	}}
	a.Run(pass)
	return diags
}

// funcFor resolves a called expression to the *types.Func it names, or
// nil when the callee is dynamic (func value, interface method).
func funcFor(u *Package, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := u.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := u.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// rootIdent walks selector/index/slice/star/paren chains to the base
// identifier, or nil (e.g. when the base is a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object in either Uses or Defs.
func objOf(u *Package, id *ast.Ident) types.Object {
	if o := u.Info.Uses[id]; o != nil {
		return o
	}
	return u.Info.Defs[id]
}
