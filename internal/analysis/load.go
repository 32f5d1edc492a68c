// Package analysis is Scrub's custom static-analysis suite: a small,
// stdlib-only framework (go/parser + go/types over `go list` export
// data) plus the repo-specific analyzers cmd/scrubvet runs in CI.
//
// The analyzers encode the contracts that keep Scrub's host impact
// minimal — contracts that previously lived only in comments and a
// handful of AllocsPerRun tests:
//
//   - hotpath: code reachable from a //scrub:hotpath function must not
//     allocate (PR 1's zero-allocation Log path).
//   - poolsafe: pooled chunk/batch memory must not be retained past the
//     owning scope without a deep copy (the Sink contract).
//   - metricname: every obs series uses a literal, unique
//     scrub_{host,transport,central,coord,server}_* name with consistent unit
//     suffixes.
//   - lockorder: no lock-order cycle among the tree's mutexes, and no
//     path that leaks, re-takes or over-releases a lock.
//   - golifecycle: every go statement in a //scrub:longlived package
//     has a stop path.
//
// See DESIGN.md §12 for the annotation grammar.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one analysis unit: a type-checked package with its syntax.
// When a package has in-package test files they are folded into the same
// unit (mirroring `go vet`), so test-only violations are caught too.
// External _test packages become their own unit with IsXTest set.
type Package struct {
	Path    string // import path ("scrub/internal/host")
	Name    string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	IsXTest bool
}

// Program is everything the analyzers see: all loaded units, the shared
// FileSet, and the annotation index extracted from their comments.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	Ann      *AnnIndex
	// Funcs maps a function's types.Func.FullName() to its declaration,
	// across every unit — the whole-program call-graph substrate the
	// hotpath analyzer traverses.
	Funcs map[string]*FuncNode
}

// FuncNode ties a declared function to the unit that type-checked it.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// LoadConfig parametrizes Load.
type LoadConfig struct {
	// Dir is the module root (defaults to ".").
	Dir string
	// Patterns are `go list` package patterns (default "./...").
	Patterns []string
	// Tests folds _test.go files into the loaded units (default in
	// scrubvet; the contracts apply to test sinks too).
	Tests bool
}

// Load enumerates, parses, and type-checks the requested packages.
// Imports — stdlib and module-internal alike — are resolved from
// compiler export data produced by `go list -export`, so no package is
// type-checked twice and no non-stdlib importer is needed.
func Load(cfg LoadConfig) (*Program, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	// The package list and the export-data list are independent `go list`
	// invocations; run them concurrently (the -export one compiles
	// anything stale and dominates cold-cache wall time).
	var (
		pkgs, deps       []listedPkg
		pkgsErr, depsErr error
		listWG           sync.WaitGroup
	)
	listWG.Add(2)
	go func() {
		defer listWG.Done()
		pkgs, pkgsErr = goList(cfg.Dir, append([]string{"-json=ImportPath,Name,Dir,GoFiles,TestGoFiles,XTestGoFiles"}, cfg.Patterns...))
	}()
	go func() {
		defer listWG.Done()
		// Export data for every dependency, test-only dependencies
		// included. ForTest variants (the "pkg [pkg.test]" shadow builds)
		// are skipped: the plain build's export data is the canonical one.
		depArgs := append([]string{"-deps", "-export", "-json=ImportPath,Export,ForTest"}, cfg.Patterns...)
		if cfg.Tests {
			depArgs = append([]string{"-test"}, depArgs...)
		}
		deps, depsErr = goList(cfg.Dir, depArgs)
	}()
	listWG.Wait()
	if pkgsErr != nil {
		return nil, pkgsErr
	}
	if depsErr != nil {
		return nil, depsErr
	}
	exports := make(map[string]string, len(deps))
	for _, d := range deps {
		if d.ForTest != "" || d.Export == "" {
			continue
		}
		if _, ok := exports[d.ImportPath]; !ok {
			exports[d.ImportPath] = d.Export
		}
	}

	fset := token.NewFileSet()
	imp := &lockedImporter{imp: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})}

	// Units never import each other in source form — every dependency
	// resolves from export data — so parsing and type-checking fan out
	// across units. The FileSet is internally synchronized; the shared
	// export-data importer is serialized by lockedImporter.
	type unitSpec struct {
		path, name, dir string
		files           []string
		xtest           bool
	}
	var specs []unitSpec
	for _, lp := range pkgs {
		if lp.ForTest != "" {
			continue
		}
		libFiles := lp.GoFiles
		files := libFiles
		if cfg.Tests {
			files = append(append([]string{}, libFiles...), lp.TestGoFiles...)
		}
		if len(files) > 0 {
			specs = append(specs, unitSpec{lp.ImportPath, lp.Name, lp.Dir, files, false})
		}
		if cfg.Tests && len(lp.XTestGoFiles) > 0 {
			specs = append(specs, unitSpec{lp.ImportPath + "_test", lp.Name + "_test", lp.Dir, lp.XTestGoFiles, true})
		}
	}

	units := make([]*Package, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp unitSpec) {
			defer wg.Done()
			units[i], errs[i] = checkUnit(fset, imp, sp.path, sp.name, sp.dir, sp.files, sp.xtest)
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	prog := &Program{Fset: fset, Packages: units, Funcs: make(map[string]*FuncNode)}
	prog.index()
	return prog, nil
}

// lockedImporter serializes a shared export-data importer (its package
// cache is not safe for concurrent Import calls).
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.imp.Import(path)
}

// index builds the annotation index and the whole-program function map
// once every unit is type-checked.
func (prog *Program) index() {
	prog.Ann = indexAnnotations(prog)
	if prog.Funcs == nil {
		prog.Funcs = make(map[string]*FuncNode)
	}
	for _, u := range prog.Packages {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
					prog.Funcs[fn.FullName()] = &FuncNode{Pkg: u, Decl: fd}
				}
			}
		}
	}
}

func checkUnit(fset *token.FileSet, imp types.Importer, path, name, dir string, files []string, xtest bool) (*Package, error) {
	u := &Package{Path: path, Name: name, Dir: dir, IsXTest: xtest}
	for _, f := range files {
		af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", f, err)
		}
		u.Files = append(u.Files, af)
	}
	u.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, u.Files, u.Info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	u.Types = pkg
	return u, nil
}

func goList(dir string, args []string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
