package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Scrub's annotation grammar (documented in DESIGN.md §12). Annotations
// are machine-readable comments of the form //scrub:name or
// //scrub:name(args):
//
//   - //scrub:hotpath            (func doc) alloc-freedom seed
//   - //scrub:pooled             (type or struct-field doc/line comment;
//     func doc: the results borrow memory the callee recycles)
//   - //scrub:guardedby(mu)      (struct-field doc/line comment)
//   - //scrub:locked(mu)         (func doc) caller holds mu; the *Locked
//     name suffix convention implies the same
//   - //scrub:allowalloc(reason) (func doc, or on/above a line) hotpath
//     escape hatch
//   - //scrub:allowretain(reason) (on/above a line) poolsafe escape hatch
//   - //scrub:allow(analyzer, reason) (on/above a line) generic per-line
//     suppression for any analyzer
//   - //scrub:longlived          (package doc) the package hosts
//     long-lived components; golifecycle checks its go statements
//   - //scrub:oneshot(reason)    (on/above a go statement) golifecycle
//     escape hatch: the goroutine is bounded by construction
type AnnIndex struct {
	// HotSeeds: FullName()s of functions annotated //scrub:hotpath.
	HotSeeds map[string]bool
	// AllowAllocFuncs: FullName()s whose whole body may allocate.
	AllowAllocFuncs map[string]bool
	// LockedFuncs: FullName()s annotated //scrub:locked(mu).
	LockedFuncs map[string]bool
	// PooledTypes: "pkgpath.TypeName" of //scrub:pooled types.
	PooledTypes map[string]bool
	// PooledFields: "pkgpath.TypeName.field" of //scrub:pooled fields.
	PooledFields map[string]bool
	// BorrowFuncs: FullName()s of functions annotated //scrub:pooled —
	// what they return aliases memory they recycle on the next call, so
	// poolsafe treats a result like a parameter.
	BorrowFuncs map[string]bool
	// GuardedFields: "pkgpath.TypeName.field" -> guarding mutex field name.
	GuardedFields map[string]string
	// LongLivedPkgs: import paths whose package doc carries
	// //scrub:longlived — golifecycle checks their go statements.
	LongLivedPkgs map[string]bool
	// allow: filename -> line -> set of analyzer names suppressed there.
	// A comment suppresses its own line and the line below it, so both
	// trailing and standalone-above placements work.
	allow map[string]map[int]map[string]bool
}

// Allowed reports whether diagnostics from the named analyzer are
// suppressed at file:line.
func (a *AnnIndex) Allowed(analyzer, file string, line int) bool {
	return a.allow[file][line][analyzer]
}

// annRe is anchored: an annotation is a comment that IS the directive
// (`//scrub:name` with no space after the slashes), so prose that merely
// mentions an annotation never registers one.
var annRe = regexp.MustCompile(`^//scrub:([a-z]+)(?:\(([^)]*)\))?`)

type ann struct {
	name string
	arg  string
}

func parseAnns(text string) []ann {
	m := annRe.FindStringSubmatch(text)
	if m == nil {
		return nil
	}
	return []ann{{name: m[1], arg: strings.TrimSpace(m[2])}}
}

func groupAnns(groups ...*ast.CommentGroup) []ann {
	var out []ann
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			out = append(out, parseAnns(c.Text)...)
		}
	}
	return out
}

func indexAnnotations(prog *Program) *AnnIndex {
	idx := &AnnIndex{
		HotSeeds:        make(map[string]bool),
		AllowAllocFuncs: make(map[string]bool),
		LockedFuncs:     make(map[string]bool),
		PooledTypes:     make(map[string]bool),
		PooledFields:    make(map[string]bool),
		BorrowFuncs:     make(map[string]bool),
		GuardedFields:   make(map[string]string),
		LongLivedPkgs:   make(map[string]bool),
		allow:           make(map[string]map[int]map[string]bool),
	}
	for _, u := range prog.Packages {
		for _, f := range u.Files {
			idx.indexFile(prog, u, f)
		}
	}
	return idx
}

func (idx *AnnIndex) suppress(file string, line int, analyzer string) {
	byLine := idx.allow[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		idx.allow[file] = byLine
	}
	for _, l := range [2]int{line, line + 1} {
		set := byLine[l]
		if set == nil {
			set = make(map[string]bool)
			byLine[l] = set
		}
		set[analyzer] = true
	}
}

func (idx *AnnIndex) indexFile(prog *Program, u *Package, f *ast.File) {
	// Package-doc annotations.
	for _, a := range groupAnns(f.Doc) {
		if a.name == "longlived" {
			idx.LongLivedPkgs[u.Path] = true
		}
	}
	// Line-level suppressions from every comment in the file.
	for _, g := range f.Comments {
		for _, c := range g.List {
			for _, a := range parseAnns(c.Text) {
				pos := prog.Fset.Position(c.Pos())
				switch a.name {
				case "allowalloc":
					idx.suppress(pos.Filename, pos.Line, "hotpath")
				case "allowretain":
					idx.suppress(pos.Filename, pos.Line, "poolsafe")
				case "oneshot":
					idx.suppress(pos.Filename, pos.Line, "golifecycle")
				case "allow":
					// First comma-separated token names the analyzer.
					name, _, _ := strings.Cut(a.arg, ",")
					idx.suppress(pos.Filename, pos.Line, strings.TrimSpace(name))
				}
			}
		}
	}
	// Declaration-level annotations.
	for _, d := range f.Decls {
		switch decl := d.(type) {
		case *ast.FuncDecl:
			for _, a := range groupAnns(decl.Doc) {
				fn, _ := u.Info.Defs[decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				switch a.name {
				case "hotpath":
					idx.HotSeeds[fn.FullName()] = true
				case "allowalloc":
					idx.AllowAllocFuncs[fn.FullName()] = true
				case "locked":
					idx.LockedFuncs[fn.FullName()] = true
				case "pooled":
					idx.BorrowFuncs[fn.FullName()] = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				typeKey := u.Path + "." + ts.Name.Name
				for _, a := range groupAnns(decl.Doc, ts.Doc, ts.Comment) {
					if a.name == "pooled" {
						idx.PooledTypes[typeKey] = true
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					for _, a := range groupAnns(field.Doc, field.Comment) {
						for _, nameID := range field.Names {
							fieldKey := typeKey + "." + nameID.Name
							switch a.name {
							case "pooled":
								idx.PooledFields[fieldKey] = true
							case "guardedby":
								idx.GuardedFields[fieldKey] = a.arg
							}
						}
					}
				}
			}
		}
	}
}

// --- shared type helpers used by several analyzers ---

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// typeKeyOf renders a named (possibly pointer-wrapped) type as the
// "pkgpath.TypeName" key annotations are indexed under.
func typeKeyOf(t types.Type) string {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return ""
	}
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// fieldKeyOf renders base type + field name as the annotation key, e.g.
// "scrub/internal/transport.Tuple.Values".
func fieldKeyOf(base types.Type, field string) string {
	tk := typeKeyOf(base)
	if tk == "" {
		return ""
	}
	return tk + "." + field
}
