// Command unreached is the CI gate for code that only tests reach. It
// builds every non-test binary of the repository with inlining off —
// ./cmd/..., ./examples/..., ./scripts/... and bench's scrubbench — lists
// the functions the linker kept with `go tool nm`, and fails on any func
// declared in a non-test file under internal/ that is in none of them and
// is not named in scripts/unreached.allow. With inlining off, a function
// the linker keeps is one that non-test code reaches.
//
// Each allowlist line is a pattern and its reason. A pattern is a
// package path relative to internal/, then the receiver type if any
// (without pointer or type parameters), then the name:
// `central.Merger.Close`, `sampling.SelectHosts`. A `*` matches any run of
// characters, so `expr.*.node` names every receiver's marker method and
// `difftest.*` a whole package. An entry without a reason, or one that
// matches no unreached func, fails the gate too.
//
// Run it from the repo root (make unreached does):
//
//	go run ./scripts/unreached
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	module    = "scrub/internal/"
	allowFile = "scripts/unreached.allow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "unreached: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("unreached: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	out := tmp + string(filepath.Separator)
	if err := goCmd("", "build", "-gcflags=all=-l", "-o", out, "./cmd/...", "./examples/...", "./scripts/..."); err != nil {
		return err
	}
	if err := goCmd("bench", "build", "-gcflags=all=-l", "-o", out, "./cmd/..."); err != nil {
		return err
	}
	linked, nbin, err := linkedFuncs(tmp)
	if err != nil {
		return err
	}
	decls, err := declaredFuncs()
	if err != nil {
		return err
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		return err
	}

	var missing []string
	for _, d := range decls {
		if linked[d.key] {
			continue
		}
		hit := false
		for _, a := range allow {
			if a.re.MatchString(d.key) {
				a.used, hit = true, true
			}
		}
		if !hit {
			missing = append(missing, fmt.Sprintf("%s: %s", d.pos, d.key))
		}
	}
	var stale []string
	for _, a := range allow {
		if !a.used {
			stale = append(stale, fmt.Sprintf("%s:%d: %s", allowFile, a.line, a.pattern))
		}
	}
	fmt.Printf("unreached: %d binaries, %d funcs under internal/, %d allowlist entries\n", nbin, len(decls), len(allow))
	if len(missing) == 0 && len(stale) == 0 {
		return nil
	}
	for _, m := range missing {
		fmt.Fprintf(os.Stderr, "in no binary: %s\n", m)
	}
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "allowlist entry matches no unreached func: %s\n", s)
	}
	return fmt.Errorf("%d funcs only tests reach (delete them, or allow them in %s with a reason), %d stale allowlist entries", len(missing), allowFile, len(stale))
}

func goCmd(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s (in %q): %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

// linkedFuncs returns the normalised key of every text symbol under
// internal/ in the binaries in dir, and how many binaries there were.
func linkedFuncs(dir string) (map[string]bool, int, error) {
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	linked := make(map[string]bool)
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, 0, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr type name"; a generic symbol's name has spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], module) {
				linked[symbolKey(f[2])] = true
			}
		}
	}
	return linked, len(bins), nil
}

// symbolKey normalises a linker symbol to an allowlist key: the module
// prefix, type arguments and the pointer-receiver spelling go, so
// `scrub/internal/slab.(*Slab[go.shape.int]).Add` is `slab.Slab.Add`.
func symbolKey(sym string) string {
	sym = strings.TrimPrefix(sym, module)
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}

type decl struct {
	key string
	pos token.Position
}

// declaredFuncs parses the non-test Go files the default build of each
// package under internal/ compiles and returns every func and method.
func declaredFuncs() ([]decl, error) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}`, "./internal/...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkg := strings.TrimPrefix(f[0], module)
		for _, path := range f[1:] {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := pkg + "."
				if fn.Recv != nil {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				pos := fset.Position(fn.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				decls = append(decls, decl{key: key + fn.Name.Name, pos: pos})
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	return decls, nil
}

func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", t)
		}
	}
}

type allowEntry struct {
	pattern string
	line    int
	re      *regexp.Regexp
	used    bool
}

func readAllow(path string) ([]*allowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var allow []*allowEntry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pattern, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, pattern)
		}
		expr := strings.ReplaceAll(regexp.QuoteMeta(pattern), `\*`, `.*`)
		allow = append(allow, &allowEntry{pattern: pattern, line: i + 1, re: regexp.MustCompile("^" + expr + "$")})
	}
	return allow, nil
}
