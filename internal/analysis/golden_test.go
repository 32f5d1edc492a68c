package analysis

// Golden tests: each analyzer runs over a small package under
// testdata/src/<name>/ whose `// want` comments state, as regexps, the
// diagnostics expected on their line. The test fails on any unexpected
// diagnostic and on any unfulfilled expectation, so the testdata files
// double as executable documentation of both the violations caught and
// the escape hatches accepted.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestGolden(t *testing.T) {
	cases := []struct {
		name      string
		analyzers []*Analyzer
	}{
		{"hotpath", []*Analyzer{HotPathAnalyzer}},
		{"poolsafe", []*Analyzer{PoolSafeAnalyzer}},
		{"metricname", []*Analyzer{MetricNameAnalyzer}},
		{"lockorder", []*Analyzer{LockOrderAnalyzer}},
		{"golifecycle", []*Analyzer{GoLifecycleAnalyzer}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runGolden(t, tc.name, tc.analyzers)
		})
	}
}

func runGolden(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fileNames []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			fileNames = append(fileNames, e.Name())
		}
	}
	sort.Strings(fileNames)

	fset := token.NewFileSet()
	var files []*ast.File
	imports := make(map[string]bool)
	for _, fn := range fileNames {
		af, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, af)
		for _, im := range af.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			imports[p] = true
		}
	}

	exports := exportData(t, imports)
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", name, err)
	}
	u := &Package{Path: name, Name: name, Dir: dir, Files: files, Types: pkg, Info: info}
	prog := &Program{Fset: fset, Packages: []*Package{u}}
	prog.index()

	diags := Run(prog, analyzers)
	wants := parseWants(t, fset, files)

	matched := make(map[*wantExp]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		var hit *wantExp
		for _, w := range wants[key] {
			if !matched[w] && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		matched[hit] = true
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

type wantExp struct{ re *regexp.Regexp }

var wantTokenRe = regexp.MustCompile("`([^`]*)`")

// parseWants collects `// want` expectations keyed by "file:line". Each
// backtick-quoted token after "want" is one expected-diagnostic regexp.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*wantExp {
	t.Helper()
	wants := make(map[string][]*wantExp)
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantTokenRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &wantExp{re: re})
				}
			}
		}
	}
	return wants
}

// exportData compiles export data for the testdata package's (stdlib)
// imports and their dependencies via `go list -deps -export`.
func exportData(t *testing.T, imports map[string]bool) map[string]string {
	t.Helper()
	if len(imports) == 0 {
		return nil
	}
	args := []string{"-deps", "-export", "-json=ImportPath,Export"}
	for p := range imports {
		args = append(args, p)
	}
	sort.Strings(args[3:])
	pkgs, err := goList(".", args)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out
}
