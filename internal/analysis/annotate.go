package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Scrub's annotation grammar (documented in DESIGN.md §12). Annotations
// are machine-readable comments of the form //scrub:name or
// //scrub:name(args):
//
//   - //scrub:hotpath            (func doc) alloc-freedom seed
//   - //scrub:pooled             (type or struct-field doc/line comment;
//     func doc: the results borrow memory the callee recycles)
//   - //scrub:allowalloc(reason) (func doc, or on/above a line) hotpath
//     escape hatch
//   - //scrub:allowretain(reason) (on/above a line) poolsafe escape hatch
//   - //scrub:longlived          (package doc) the package hosts
//     long-lived components; golifecycle checks its go statements
//
// Any other //scrub: name registers nothing.
type AnnIndex struct {
	// HotSeeds: FullName()s of functions annotated //scrub:hotpath.
	HotSeeds map[string]bool
	// AllowAllocFuncs: FullName()s whose whole body may allocate.
	AllowAllocFuncs map[string]bool
	// PooledTypes: "pkgpath.TypeName" of //scrub:pooled types.
	PooledTypes map[string]bool
	// PooledFields: "pkgpath.TypeName.field" of //scrub:pooled fields.
	PooledFields map[string]bool
	// BorrowFuncs: FullName()s of functions annotated //scrub:pooled —
	// what they return aliases memory they recycle on the next call, so
	// poolsafe treats a result like a parameter.
	BorrowFuncs map[string]bool
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
// mentions an annotation never registers one. A directive's argument is
// a reason for the reader; no analyzer reads it.
var annRe = regexp.MustCompile(`^//scrub:([a-z]+)`)

// annName is the directive a comment writes, or "".
func annName(text string) string {
	if m := annRe.FindStringSubmatch(text); m != nil {
		return m[1]
	}
	return ""
}

// groupAnns lists the directives the comment groups write.
func groupAnns(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if name := annName(c.Text); name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}

func indexAnnotations(prog *Program) *AnnIndex {
	idx := &AnnIndex{
		HotSeeds:        make(map[string]bool),
		AllowAllocFuncs: make(map[string]bool),
		PooledTypes:     make(map[string]bool),
		PooledFields:    make(map[string]bool),
		BorrowFuncs:     make(map[string]bool),
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

// lineHatches maps each line-level escape hatch to the analyzer it
// suppresses.
var lineHatches = map[string]string{"allowalloc": "hotpath", "allowretain": "poolsafe"}

func (idx *AnnIndex) indexFile(prog *Program, u *Package, f *ast.File) {
	// Package-doc annotations.
	for _, a := range groupAnns(f.Doc) {
		if a == "longlived" {
			idx.LongLivedPkgs[u.Path] = true
		}
	}
	// Line-level suppressions from every comment in the file.
	for _, g := range f.Comments {
		for _, c := range g.List {
			if analyzer, ok := lineHatches[annName(c.Text)]; ok {
				pos := prog.Fset.Position(c.Pos())
				idx.suppress(pos.Filename, pos.Line, analyzer)
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
				switch a {
				case "hotpath":
					idx.HotSeeds[fn.FullName()] = true
				case "allowalloc":
					idx.AllowAllocFuncs[fn.FullName()] = true
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
					if a == "pooled" {
						idx.PooledTypes[typeKey] = true
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					for _, a := range groupAnns(field.Doc, field.Comment) {
						if a != "pooled" {
							continue
						}
						for _, nameID := range field.Names {
							idx.PooledFields[typeKey+"."+nameID.Name] = true
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
