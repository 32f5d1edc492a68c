package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryMessageIsSentAndHandled: a message type is worth its tag only
// if some program sends it and some program acts on it. Every type with a
// msgTag method needs, in non-test code outside internal/transport, a
// sender — a composite literal of the type — and a receiver — a
// type-switch case or a type assertion naming it (or a pointer to it).
// A message nobody sends keeps handlers alive that answer nothing; one
// nobody handles is bytes on the wire for nothing.
func TestEveryMessageIsSentAndHandled(t *testing.T) {
	msgs := messageTypes(t)
	if len(msgs) == 0 {
		t.Fatal("no message types found in internal/transport")
	}
	sent, handled := scanUses(t, filepath.Join("..", ".."))
	for _, m := range msgs {
		if !sent[m] {
			t.Errorf("%s is never sent: no non-test code outside internal/transport builds a transport.%s literal", m, m)
		}
		if !handled[m] {
			t.Errorf("%s is never handled: no non-test type switch or type assertion outside internal/transport names transport.%s", m, m)
		}
	}
}

// messageTypes lists the types that declare msgTag in this package's
// non-test files.
func messageTypes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	for _, f := range parseDir(t, fset, ".") {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "msgTag" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// scanUses walks the module's non-test Go files outside this package (and
// outside nested modules and testdata) and records which transport types
// appear in a composite literal and which in a type-switch case or a type
// assertion.
func scanUses(t *testing.T, root string) (sent, handled map[string]bool) {
	t.Helper()
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	sent, handled = make(map[string]bool), make(map[string]bool)
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir
		}
		if abs == self {
			return nil
		}
		for _, f := range parseDir(t, fset, path) {
			local := transportImportName(f)
			if local == "" {
				continue
			}
			named := func(e ast.Expr) (string, bool) {
				if star, ok := e.(*ast.StarExpr); ok {
					e = star.X
				}
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return "", false
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					return sel.Sel.Name, true
				}
				return "", false
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					if name, ok := named(x.Type); ok {
						sent[name] = true
					}
				case *ast.TypeSwitchStmt:
					for _, clause := range x.Body.List {
						for _, e := range clause.(*ast.CaseClause).List {
							if name, ok := named(e); ok {
								handled[name] = true
							}
						}
					}
				case *ast.TypeAssertExpr:
					if name, ok := named(x.Type); ok {
						handled[name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sent, handled
}

// parseDir parses the non-test Go files directly in dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// transportImportName is the name f refers to this package by, or "" when
// it does not import it.
func transportImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "scrub/internal/transport" {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return "transport"
	}
	return ""
}
