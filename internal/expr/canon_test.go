package expr

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"scrub/internal/event"
)

// The properties pinned here are the correctness contract of the shared
// query index: Canon must be semantics-preserving and idempotent, and a
// Program must evaluate every interned tree bit-identically to the
// compiled closures, sharing canonically-equal subexpressions.

// genSchema is bidSchema plus a time-kind field, so the generator can
// reach every kind a predicate can compare.
var genSchema = event.MustSchema("bid",
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "city", Kind: event.KindString},
	event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
	event.FieldDef{Name: "won", Kind: event.KindBool},
	event.FieldDef{Name: "segments", Kind: event.KindList, Elem: event.KindInt},
	event.FieldDef{Name: "seen", Kind: event.KindTime},
)

var genResolver = SchemaResolver{Schemas: []*event.Schema{genSchema}}

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// genExpr builds a random unchecked tree of the requested kind over
// genSchema. Depth-bounded; leaves are field references (the two system
// fields among them) and literals (including occasional NaN, zero
// divisors, and type-mismatched specials that survive Check). The shapes
// the register program specialises — a field or a computed number
// against a literal on either side, int-vs-float mixes, IN over ints,
// floats and strings, LIKE, time compares — are all reachable.
func genExpr(rng *rand.Rand, kind event.Kind, depth int) Node {
	if depth <= 0 || rng.Intn(4) == 0 {
		return genLeaf(rng, kind)
	}
	switch kind {
	case event.KindBool:
		switch rng.Intn(13) {
		case 0, 1:
			return Binary{Op: pick(rng, OpAnd, OpOr), L: genExpr(rng, event.KindBool, depth-1), R: genExpr(rng, event.KindBool, depth-1)}
		case 2:
			return Unary{Op: OpNot, X: genExpr(rng, event.KindBool, depth-1)}
		case 3, 4:
			// Either numeric kind on either side: int-vs-float mixes included.
			op := pick(rng, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe)
			return Binary{Op: op,
				L: genExpr(rng, pick(rng, event.KindInt, event.KindFloat), depth-1),
				R: genExpr(rng, pick(rng, event.KindInt, event.KindFloat), depth-1)}
		case 5:
			op := pick(rng, OpEq, OpNe, OpLt, OpGe)
			return Binary{Op: op, L: genExpr(rng, event.KindString, depth-1), R: genExpr(rng, event.KindString, depth-1)}
		case 6:
			// in-list with duplicates and shuffled order; sometimes a float
			// element, which takes the list off the all-int path.
			n := 1 + rng.Intn(4)
			list := make([]Node, n)
			for i := range list {
				list[i] = Lit{Val: event.Int(int64(rng.Intn(4)))}
				if rng.Intn(6) == 0 {
					list[i] = Lit{Val: event.Float(float64(rng.Intn(4)) + 0.5*float64(rng.Intn(2)))}
				}
			}
			return In{X: genExpr(rng, event.KindInt, depth-1), List: list, Negate: rng.Intn(2) == 0}
		case 7:
			pats := []string{"san%", "%jose", "s_n%", "%", "san jose", "a%b%c"}
			return Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str(pick(rng, pats...))}}
		case 8:
			if rng.Intn(2) == 0 {
				return Binary{Op: OpContains, L: FieldRef{Name: "city"}, R: genExpr(rng, event.KindString, depth-1)}
			}
			return Binary{Op: OpContains, L: FieldRef{Name: "segments"}, R: genExpr(rng, event.KindInt, depth-1)}
		case 9:
			n := 1 + rng.Intn(3)
			list := make([]Node, n)
			for i := range list {
				list[i] = Lit{Val: event.Str(pick(rng, "", "san jose", "sf", "jose"))}
			}
			return In{X: genLeaf(rng, event.KindString), List: list, Negate: rng.Intn(2) == 0}
		case 10:
			op := pick(rng, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe)
			return Binary{Op: op, L: genLeaf(rng, event.KindTime), R: genLeaf(rng, event.KindTime)}
		case 11:
			return Binary{Op: pick(rng, OpEq, OpNe), L: genLeaf(rng, event.KindBool), R: genLeaf(rng, event.KindBool)}
		default:
			return genLeaf(rng, event.KindBool)
		}
	case event.KindInt:
		op := pick(rng, OpAdd, OpSub, OpMul, OpMod)
		return Binary{Op: op, L: genExpr(rng, event.KindInt, depth-1), R: genExpr(rng, event.KindInt, depth-1)}
	case event.KindFloat:
		switch rng.Intn(4) {
		case 0:
			return Binary{Op: OpDiv, L: genExpr(rng, event.KindFloat, depth-1), R: genExpr(rng, event.KindFloat, depth-1)}
		case 1:
			return Unary{Op: OpNeg, X: genExpr(rng, event.KindFloat, depth-1)}
		default:
			op := pick(rng, OpAdd, OpSub, OpMul)
			// Mixing int operands exercises the int/float widening rules.
			lk := pick(rng, event.KindFloat, event.KindInt)
			rk := event.KindFloat
			if lk == event.KindFloat && rng.Intn(2) == 0 {
				rk = event.KindInt
			}
			return Binary{Op: op, L: genExpr(rng, lk, depth-1), R: genExpr(rng, rk, depth-1)}
		}
	}
	return genLeaf(rng, kind)
}

func genLeaf(rng *rand.Rand, kind event.Kind) Node {
	switch kind {
	case event.KindBool:
		if rng.Intn(3) == 0 {
			return FieldRef{Name: "won"}
		}
		return Lit{Val: event.Bool(rng.Intn(2) == 0)}
	case event.KindInt:
		switch rng.Intn(5) {
		case 0, 1:
			return FieldRef{Name: "user_id"}
		case 2:
			return FieldRef{Name: event.FieldRequestID}
		}
		return Lit{Val: event.Int(int64(rng.Intn(7)) - 3)} // includes 0 divisors
	case event.KindFloat:
		if rng.Intn(2) == 0 {
			return FieldRef{Name: "bid_price"}
		}
		return Lit{Val: event.Float(pick(rng, 0, 1, -1.5, 2.25, 1e9, math.NaN(), math.Inf(1)))}
	case event.KindString:
		if rng.Intn(2) == 0 {
			return FieldRef{Name: "city"}
		}
		return Lit{Val: event.Str(pick(rng, "", "san jose", "sf", "jose"))}
	case event.KindTime:
		switch rng.Intn(3) {
		case 0:
			return FieldRef{Name: "seen"}
		case 1:
			return FieldRef{Name: event.FieldTimestamp}
		}
		return Lit{Val: event.TimeNanos(int64(rng.Intn(1000)) + 1)}
	}
	return Lit{Val: event.Invalid}
}

// genEvent builds a random bid event with some fields unset, so
// predicates see Invalid (missing) values; some hold values of the wrong
// kind in a column or fewer values than the schema has fields — what a
// decoder or a careless caller can produce.
func genEvent(rng *rand.Rand) *event.Event {
	ev := &event.Event{
		Schema:    genSchema,
		RequestID: uint64(rng.Intn(7)),
		TimeNanos: int64(rng.Intn(1000)) + 1,
		Values:    make([]event.Value, genSchema.NumFields()),
	}
	set := func(i int, v event.Value) {
		if rng.Intn(8) != 0 {
			ev.Values[i] = v
		}
	}
	set(0, event.Int(int64(rng.Intn(7))-3))
	set(1, event.Str(pick(rng, "", "san jose", "sf", "jose city")))
	set(2, event.Float(pick(rng, 0, 1, -1.5, 2.25, math.NaN(), math.Inf(-1))))
	set(3, event.Bool(rng.Intn(2) == 0))
	set(4, event.IntList(int64(rng.Intn(4)), int64(rng.Intn(4))))
	set(5, event.TimeNanos(int64(rng.Intn(1000))+1))
	if rng.Intn(4) == 0 {
		// Kind-mismatched columns: any value in any column.
		wrong := []event.Value{
			event.Int(2), event.Float(2), event.Float(-1.5), event.Str("sf"), event.Bool(true),
			event.TimeNanos(500), event.IntList(1, 2), event.StrList("sf"), event.Invalid,
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			ev.Values[rng.Intn(len(ev.Values))] = pick(rng, wrong...)
		}
	}
	if rng.Intn(6) == 0 {
		ev.Values = ev.Values[:rng.Intn(len(ev.Values))]
	}
	return ev
}

// eqv is the observational equivalence the rewrites promise: same kind
// and same value, where all NaNs are alike (no Scrub operator
// distinguishes NaN payloads) and Invalid equals Invalid.
func eqv(a, b event.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return a.Equal(b)
}

// checkTree draws one tree and 32 rows from rng and requires (a) Canon to
// be idempotent and semantics-preserving and (b) the Program to agree
// with Compile on every node of the canonical tree — each subtree is
// interned and compiled on its own, and all of them are read through one
// Ctx within one Begin/Finish, so a wrong memo shows as well as a wrong
// operator — in a fresh program, in one that Program.Keep copied from a
// program holding other drawn trees before the tree was interned, as an
// agent's Start interns a query, and in a Keep of that one to the tree and
// all but one of the others, as a query's removal cuts its type's program
// — and (c) to agree with it again when the tree is read through a
// tuple-row binding (checkPairs). It reports false when the drawn tree
// does not type-check.
func checkTree(t testing.TB, rng *rand.Rand) bool {
	raw := genExpr(rng, event.KindBool, 4)
	checked, kind, err := Check(raw, genResolver)
	if err != nil {
		return false
	}
	if kind != event.KindBool {
		t.Fatalf("generator produced %s, want bool: %s", kind, raw)
	}
	orig, err := Compile(checked)
	if err != nil {
		t.Fatalf("compile original: %v", err)
	}
	canon := Canon(checked)
	ce, err := Compile(canon)
	if err != nil {
		t.Fatalf("compile canonical form of %s: %v\ncanon: %s", checked, err, canon)
	}
	// Idempotence: canonicalizing twice is a fixed point.
	k1, err1 := AppendNode(nil, canon)
	k2, err2 := AppendNode(nil, Canon(canon))
	if err1 != nil || err2 != nil || !bytes.Equal(k1, k2) {
		t.Fatalf("Canon not idempotent:\n  once:  %s\n  twice: %s", canon, Canon(canon))
	}
	prog, subs := internAll(t, NewProgramBuilder(), canon)
	others, trees, roots := otherTrees(t, rng)
	kb, _ := others.Keep(roots)
	if got, want := len(kb.p.nodes), others.NumNodes(); got != want {
		t.Fatalf("keeping every root of %d trees kept %d of %d nodes", len(roots), got, want)
	}
	seeded, seededSubs := internAll(t, kb, canon)
	// Cut the seeded program to canon's subtrees and every other tree but
	// the first: it holds what interning those afresh holds.
	ids := make([]int32, len(seededSubs))
	for j, s := range seededSubs {
		ids[j] = s.id
	}
	kb, kept := seeded.Keep(append(ids, roots[min(1, len(roots)):]...))
	cut, cutSubs := kb.Build(), slices.Clone(seededSubs)
	for j := range cutSubs {
		cutSubs[j].id = kept[j]
	}
	fb := NewProgramBuilder()
	for _, n := range trees[min(1, len(trees)):] {
		if _, err := fb.Intern(n); err != nil {
			t.Fatalf("intern %s: %v", n, err)
		}
	}
	fresh, _ := internAll(t, fb, canon)
	if got, want := cut.NumNodes(), fresh.NumNodes(); got != want {
		t.Fatalf("a cut to %s and %d other trees has %d nodes, a fresh intern %d", canon, len(trees)-min(1, len(trees)), got, want)
	}
	ctxs := []*Ctx{prog.NewCtx(), seeded.NewCtx(), cut.NewCtx()}
	for i := 0; i < 32; i++ {
		row := EventRow{Event: genEvent(rng)}
		want := orig(row)
		if got := ce(row); !eqv(want, got) {
			t.Fatalf("row %d: canon diverges\n  expr:  %s\n  canon: %s\n  want %v got %v", i, checked, canon, want, got)
		}
		for j, s := range [][]sub{subs, seededSubs, cutSubs} {
			ctxs[j].Begin(row)
			compareAll(t, ctxs[j], s, row, i)
			ctxs[j].Finish()
		}
	}
	checkPairs(t, rng, canon)
	return true
}

// sub is one subtree of a checked tree: its node id in a program and the
// closure it compiles to on its own.
type sub struct {
	n    Node
	id   int32
	want Evaluator
}

// otherTrees draws one to eight more trees from rng and interns the
// canonical form of each that type-checks into one program; it returns
// the program, the trees and their ids in it.
func otherTrees(t testing.TB, rng *rand.Rand) (*Program, []Node, []int32) {
	pb := NewProgramBuilder()
	var trees []Node
	var roots []int32
	for n := 1 + rng.Intn(8); n > 0; n-- {
		checked, _, err := Check(genExpr(rng, event.KindBool, 4), genResolver)
		if err != nil {
			continue
		}
		canon := Canon(checked)
		id, err := pb.Intern(canon)
		if err != nil {
			t.Fatalf("intern %s: %v", checked, err)
		}
		trees, roots = append(trees, canon), append(roots, id)
	}
	return pb.Build(), trees, roots
}

// internAll interns root into pb and, each under its own id, every
// subtree of it (subs[0] is root), compiles every subtree, and builds the
// program.
func internAll(t testing.TB, pb *ProgramBuilder, root Node) (*Program, []sub) {
	rootID, err := pb.Intern(root)
	if err != nil {
		t.Fatalf("intern: %v", err)
	}
	var subs []sub
	Walk(root, func(n Node) bool {
		id, err := pb.Intern(n)
		if err != nil {
			t.Fatalf("intern subtree %s: %v", n, err)
		}
		want, err := Compile(n)
		if err != nil {
			t.Fatalf("compile subtree %s: %v", n, err)
		}
		subs = append(subs, sub{n, id, want})
		return true
	})
	if subs[0].id != rootID {
		t.Fatalf("root interned twice: %d then %d", rootID, subs[0].id)
	}
	return pb.Build(), subs
}

// compareAll requires the row ctx has begun to read, node by node, what
// the closures read from row: the root as a predicate, then every node's
// value children before parents and again parents first — the value must
// not depend on what was already memoized.
func compareAll(t testing.TB, ctx *Ctx, subs []sub, row Row, i int) {
	root := subs[0]
	wantB, okB := root.want(row).AsBool()
	if gotB := ctx.Bool(root.id); gotB != (okB && wantB) {
		t.Fatalf("row %d: predicate diverges on %s: want %v got %v", i, root.n, okB && wantB, gotB)
	}
	for j := len(subs) - 1; j >= -len(subs); j-- {
		s := subs[max(j, -j-1)]
		if want, got := s.want(row), ctx.Value(s.id); !eqv(want, got) {
			t.Fatalf("row %d (%T): program diverges at node %d\n  node:  %s\n  root:  %s\n  want %v got %v",
				i, row, s.id, s.n, root.n, want, got)
		}
	}
}

// pairSide is the second side of a generated pair: it ships the same
// columns as genSchema under another type name.
const pairSide = "imp"

// pairRow is the by-name reference for a tuple-row binding: a joined pair
// of tuples whose projected columns are looked up by name on every read.
// A reference qualified with a side's type reads that side, an
// unqualified one the first side that ships the column; request_id and ts
// read the header.
type pairRow struct {
	types [2]string
	cols  [2][]string
	sides [2]Tuple
}

func (r *pairRow) Field(typ, name string) event.Value {
	for s := range r.types {
		if typ != "" && typ != r.types[s] {
			continue
		}
		t := &r.sides[s]
		switch name {
		case event.FieldRequestID:
			return event.Int(int64(t.RequestID))
		case event.FieldTimestamp:
			return event.TimeNanos(t.TimeNanos)
		}
		if i := slices.Index(r.cols[s], name); i >= 0 {
			if i < len(t.Values) {
				return t.Values[i]
			}
			return event.Invalid
		}
	}
	return event.Invalid
}

func (*pairRow) Agg(int) event.Value { return event.Invalid }

// keyRow is the by-name reference for BindKeys: a reference reads the
// first key of its name and of the type it names (any, unqualified).
type keyRow struct {
	keys  []FieldRef
	sides [2]Tuple // side 0's Values are the keys' values
}

func (r *keyRow) Field(typ, name string) event.Value {
	for i, k := range r.keys {
		if k.Name == name && (typ == "" || typ == k.Type) {
			if vals := r.sides[0].Values; i < len(vals) {
				return vals[i]
			}
			return event.Invalid
		}
	}
	return event.Invalid
}

func (*keyRow) Agg(int) event.Value { return event.Invalid }

// requalify spreads a checked tree's field references over a pair: each
// keeps its type, moves to the other side, loses its qualifier or names a
// type neither side has.
func requalify(n Node, rng *rand.Rand) Node {
	switch t := n.(type) {
	case FieldRef:
		t.Type = pick(rng, t.Type, pairSide, pairSide, "", "nope")
		return t
	case Unary:
		t.X = requalify(t.X, rng)
		return t
	case Binary:
		t.L, t.R = requalify(t.L, rng), requalify(t.R, rng)
		return t
	case In:
		t.X = requalify(t.X, rng)
		return t
	}
	return n
}

// checkPairs reads tree through a tuple-row binding: its references
// spread over two sides (requalify), each side shipping a random subset of
// genSchema's columns in a random order, over 32 pairs whose values are
// missing, of the wrong kind, NaN, or cut short as genRow draws them. Every
// node must read what its closure reads through the by-name pairRow. Then
// the same nodes are read as a closed window's keys through BindKeys: a
// random key list over both types, system fields and repeats included,
// against the by-name keyRow.
func checkPairs(t testing.TB, rng *rand.Rand, tree Node) {
	prog, subs := internAll(t, NewProgramBuilder(), requalify(tree, rng))
	row := &pairRow{types: [2]string{genSchema.Name(), pairSide}}
	for s := range row.cols {
		for _, f := range rng.Perm(genSchema.NumFields()) {
			if rng.Intn(5) != 0 {
				row.cols[s] = append(row.cols[s], genSchema.Field(f).Name)
			}
		}
	}
	bind := prog.BindTuples(row.types[:], row.cols[:])
	ctx := prog.NewCtx()
	for i := 0; i < 32; i++ {
		for s := range row.sides {
			ev := genEvent(rng)
			vals := make([]event.Value, len(row.cols[s]))
			for j, name := range row.cols[s] {
				if k := genSchema.FieldIndex(name); k < len(ev.Values) {
					vals[j] = ev.Values[k]
				}
			}
			if rng.Intn(6) == 0 {
				vals = vals[:rng.Intn(len(vals)+1)]
			}
			row.sides[s] = Tuple{RequestID: ev.RequestID, TimeNanos: ev.TimeNanos, Values: vals}
		}
		ctx.BeginTuples(bind, &row.sides, nil)
		compareAll(t, ctx, subs, row, i)
	}
	names := append([]string{event.FieldRequestID, event.FieldTimestamp}, row.cols[0]...)
	kr := &keyRow{}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		kr.keys = append(kr.keys, FieldRef{Type: pick(rng, genSchema.Name(), pairSide), Name: pick(rng, names...)})
	}
	keys := prog.BindKeys(kr.keys)
	for i := 0; i < 32; i++ {
		vals := genEvent(rng).Values
		kr.sides[0].Values = vals[:min(len(kr.keys), len(vals))]
		ctx.BeginTuples(keys, &kr.sides, nil)
		compareAll(t, ctx, subs, kr, i)
	}
	ctx.Finish()
}

func TestCanonPreservesSemantics(t *testing.T) {
	trees := 0
	for seed := int64(0); seed < 400; seed++ {
		if checkTree(t, rand.New(rand.NewSource(seed))) {
			trees++
		}
	}
	if trees < 200 {
		t.Fatalf("only %d/400 generated trees type-checked — generator has rotted", trees)
	}
	t.Logf("checked %d trees × 32 rows, every node of each", trees)
}

// byteSource feeds the generator from fuzz input, so the fuzzer's
// mutations move single decisions of genExpr/genRow rather than reseeding
// all of them. It reads zeros once the input runs out.
type byteSource struct {
	b []byte
}

func (s *byteSource) Int63() int64 {
	var x uint64
	for i := 0; i < 8 && len(s.b) > 0; i++ {
		x = x<<8 | uint64(s.b[0])
		s.b = s.b[1:]
	}
	return int64(x >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzProgramMatchesCompile is checkTree driven by the fuzzer (`make
// fuzz-smoke`): the register program against the closure compiler on
// every node, over rows with missing, kind-mismatched and NaN operands.
func FuzzProgramMatchesCompile(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 512)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTree(t, rand.New(&byteSource{b: data}))
	})
}

func TestCanonSharesEquivalentSpellings(t *testing.T) {
	res := singleResolver()
	price := FieldRef{Name: "bid_price"}
	user := FieldRef{Name: "user_id"}
	city := FieldRef{Name: "city"}
	gt := func(f FieldRef, v float64) Node { return Binary{Op: OpGt, L: f, R: Lit{Val: event.Float(v)}} }
	eqs := func(f FieldRef, s string) Node { return Binary{Op: OpEq, L: f, R: Lit{Val: event.Str(s)}} }
	cases := []struct{ a, b Node }{
		// and-operand order
		{Binary{Op: OpAnd, L: gt(price, 1.5), R: eqs(city, "sf")},
			Binary{Op: OpAnd, L: eqs(city, "sf"), R: gt(price, 1.5)}},
		// nested and-chain associativity
		{Binary{Op: OpAnd, L: Binary{Op: OpAnd, L: gt(price, 1.5), R: eqs(city, "sf")}, R: FieldRef{Name: "won"}},
			Binary{Op: OpAnd, L: eqs(city, "sf"), R: Binary{Op: OpAnd, L: FieldRef{Name: "won"}, R: gt(price, 1.5)}}},
		// equality operand order
		{Binary{Op: OpEq, L: user, R: Lit{Val: event.Int(7)}},
			Binary{Op: OpEq, L: Lit{Val: event.Int(7)}, R: user}},
		// in-list order and duplicates
		{In{X: user, List: []Node{Lit{Val: event.Int(3)}, Lit{Val: event.Int(1)}, Lit{Val: event.Int(3)}}},
			In{X: user, List: []Node{Lit{Val: event.Int(1)}, Lit{Val: event.Int(3)}}}},
		// constant folding
		{Binary{Op: OpGt, L: price, R: Binary{Op: OpMul, L: Lit{Val: event.Float(0.5)}, R: Lit{Val: event.Int(3)}}},
			Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1.5)}}},
		// identity and annihilator operands
		{Binary{Op: OpAnd, L: gt(price, 2), R: Lit{Val: event.Bool(true)}}, gt(price, 2)},
		{Binary{Op: OpOr, L: gt(price, 2), R: Lit{Val: event.Bool(false)}}, gt(price, 2)},
	}
	for i, c := range cases {
		ca, _, err := Check(c.a, res)
		if err != nil {
			t.Fatalf("case %d: check a: %v", i, err)
		}
		cb, _, err := Check(c.b, res)
		if err != nil {
			t.Fatalf("case %d: check b: %v", i, err)
		}
		pb := NewProgramBuilder()
		ida, err := pb.Intern(Canon(ca))
		if err != nil {
			t.Fatalf("case %d: intern a: %v", i, err)
		}
		idb, err := pb.Intern(Canon(cb))
		if err != nil {
			t.Fatalf("case %d: intern b: %v", i, err)
		}
		if ida != idb {
			t.Errorf("case %d: equivalent spellings interned separately:\n  %s -> %d\n  %s -> %d",
				i, Canon(ca), ida, Canon(cb), idb)
		}
	}
	// Annihilator collapse: X and false folds to the false literal.
	ca, _, err := Check(Binary{Op: OpAnd, L: gt(price, 2), R: Lit{Val: event.Bool(false)}}, res)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := Canon(ca).(Lit); !ok || c.Val.String() != "false" {
		t.Errorf("X and false canonicalized to %s, want the false literal", Canon(ca))
	}
}

func TestProgramSharesSubexpressions(t *testing.T) {
	res := singleResolver()
	price := FieldRef{Name: "bid_price"}
	// Two different predicates over a common subexpression: the field
	// reference and the shared conjunct must intern once each.
	p1 := Binary{Op: OpAnd,
		L: Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1.5)}},
		R: Binary{Op: OpEq, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str("sf")}}}
	p2 := Binary{Op: OpAnd,
		L: Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1.5)}},
		R: FieldRef{Name: "won"}}
	pb := NewProgramBuilder()
	var ids []int32
	for _, p := range []Node{p1, p2} {
		checked, _, err := Check(p, res)
		if err != nil {
			t.Fatal(err)
		}
		id, err := pb.Intern(Canon(checked))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	prog := pb.Build()
	// p1: price, 1.5, price>1.5, city, "sf", city="sf", and = 7 nodes.
	// p2 adds: won, and = 2 more. Shared: price, 1.5, price>1.5.
	if prog.NumNodes() != 9 {
		t.Errorf("program has %d nodes, want 9 (price>1.5 subtree shared)", prog.NumNodes())
	}
	if ids[0] == ids[1] {
		t.Error("distinct predicates interned to the same id")
	}
	// Shared-node evaluation: with memoization the shared conjunct is
	// computed once per row even when both roots are evaluated. Its column
	// changes behind the Ctx's back after the first root, so computing it
	// again within the row would show.
	ev := event.NewBuilder(bidSchema).Int("user_id", 1).Str("city", "sf").
		Float("bid_price", 2.0).Bool("won", true).SetTimeNanos(1).MustBuild()
	ctx := prog.NewCtx()
	ctx.Begin(EventRow{Event: ev})
	if !ctx.Bool(ids[0]) {
		t.Error("p1 should match")
	}
	ev.Values[bidSchema.FieldIndex("bid_price")] = event.Float(1)
	if !ctx.Bool(ids[1]) || !ctx.Bool(ids[0]) {
		t.Error("price > 1.5 was computed again within one row: the subexpression is not shared")
	}
	ctx.Finish()
	if ctx.sides != nil || ctx.own[0].Values != nil {
		t.Error("Finish left the event in the context (pins event payloads)")
	}
	ctx.Begin(EventRow{Event: ev})
	if ctx.Bool(ids[1]) {
		t.Error("a new row sees the previous row's registers")
	}
	ctx.Finish()
}

// TestInternPresentTreeAllocatesNothing pins interning as a lookup: a tree
// the builder already holds, every side table included — a field, a float
// and a string literal, an in-list, a LIKE pattern — adds no node and
// allocates nothing, in the builder that interned it and in one a Program
// keeps it in, which finds the tree under the id Keep gave it.
func TestInternPresentTreeAllocatesNothing(t *testing.T) {
	tree, _, err := Check(Binary{Op: OpAnd,
		L: Binary{Op: OpOr,
			L: Binary{Op: OpGt, L: FieldRef{Name: "bid_price"}, R: Lit{Val: event.Float(1.5)}},
			R: Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str("s%j")}}},
		R: Binary{Op: OpAnd,
			L: In{X: Binary{Op: OpMod, L: FieldRef{Name: "user_id"}, R: Lit{Val: event.Int(64)}},
				List: []Node{Lit{Val: event.Int(1)}, Lit{Val: event.Int(7)}}},
			R: Binary{Op: OpEq, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str("sf")}}}}, singleResolver())
	if err != nil {
		t.Fatal(err)
	}
	// Another tree first, so that none of tree's side-table entries is the
	// first of its table.
	other, _, err := Check(Binary{Op: OpAnd,
		L: Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str("x%")}},
		R: Binary{Op: OpOr, L: FieldRef{Name: "won"}, R: In{X: FieldRef{Name: "user_id"}, List: []Node{Lit{Val: event.Int(2)}}}}}, singleResolver())
	if err != nil {
		t.Fatal(err)
	}
	pb := NewProgramBuilder()
	otherID, err := pb.Intern(other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pb.Intern(tree)
	if err != nil {
		t.Fatal(err)
	}
	kb, kept := pb.Build().Keep([]int32{otherID, want})
	for name, c := range map[string]struct {
		b    *ProgramBuilder
		want int32
	}{"fresh": {pb, want}, "kept": {kb, kept[1]}} {
		b := c.b
		nodes := len(b.p.nodes)
		allocs := testing.AllocsPerRun(100, func() {
			if id, err := b.Intern(tree); id != c.want || err != nil {
				t.Fatalf("%s: re-intern: %d, %v; want %d", name, id, err, c.want)
			}
		})
		if allocs != 0 || len(b.p.nodes) != nodes {
			t.Errorf("%s: re-interning a present tree: %v allocs, %d nodes; want 0 allocs, %d nodes", name, allocs, len(b.p.nodes), nodes)
		}
	}
}

// TestProgramNodeSize pins the instruction at three words (the issue's
// ceiling is four): host-fanout's live heap is mostly these.
func TestProgramNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(inst{}); sz > 32 {
		t.Errorf("program node is %d bytes, want <= 32", sz)
	}
}

// TestProgramSpecialises pins which instruction each predicate shape
// interns to: the typed paths are a performance property no semantic test
// would notice losing.
func TestProgramSpecialises(t *testing.T) {
	user, price, city := FieldRef{Name: "user_id"}, FieldRef{Name: "bid_price"}, FieldRef{Name: "city"}
	cases := []struct {
		n       Node
		op      opcode
		cmp     Op
		k       event.Kind
		inField bool // reads its column directly
	}{
		{Binary{Op: OpGe, L: user, R: Lit{Val: event.Int(3)}}, opCmpNum, OpGe, event.KindInt, true},
		{Binary{Op: OpLt, L: Lit{Val: event.Int(3)}, R: user}, opCmpNum, OpGt, event.KindInt, true},
		{Binary{Op: OpLe, L: price, R: Lit{Val: event.Int(3)}}, opCmpNum, OpLe, event.KindInt, true},
		{Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(2.5)}}, opCmpNum, OpGt, event.KindFloat, true},
		{Binary{Op: OpGt, L: FieldRef{Name: event.FieldTimestamp}, R: Lit{Val: event.TimeNanos(5)}}, opCmpNum, OpGt, event.KindTime, true},
		{Binary{Op: OpEq, L: Binary{Op: OpMod, L: user, R: Lit{Val: event.Int(64)}}, R: Lit{Val: event.Int(7)}}, opCmpNum, OpEq, event.KindInt, false},
		{Binary{Op: OpEq, L: city, R: Lit{Val: event.Str("sf")}}, opCmpStr, OpEq, 0, true},
		{Binary{Op: OpLike, L: city, R: Lit{Val: event.Str("s%")}}, opLike, 0, 0, true},
		{In{X: user, List: []Node{Lit{Val: event.Int(1)}, Lit{Val: event.Int(2)}}}, opIn, 0, event.KindInt, true},
		{In{X: city, List: []Node{Lit{Val: event.Str("sf")}}}, opIn, 0, event.KindString, true},
		{In{X: user, List: []Node{Lit{Val: event.Int(1)}, Lit{Val: event.Float(2.5)}}}, opIn, 0, event.KindInvalid, true},
		{Binary{Op: OpMod, L: user, R: Lit{Val: event.Int(64)}}, opArith, OpMod, 0, false},
		{Binary{Op: OpLt, L: user, R: price}, opCmp, OpLt, 0, false},
		{Binary{Op: OpEq, L: FieldRef{Name: "won"}, R: Lit{Val: event.Bool(true)}}, opCmp, OpEq, 0, false},
	}
	for i, c := range cases {
		checked, _, err := Check(c.n, singleResolver())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		pb := NewProgramBuilder()
		id, err := pb.Intern(checked)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		nd := pb.p.nodes[id]
		if nd.op != c.op || nd.cmp != c.cmp || nd.k != c.k {
			t.Errorf("case %d (%s): interned as op %d cmp %s kind %s, want op %d cmp %s kind %s",
				i, checked, nd.op, nd.cmp, nd.k, c.op, c.cmp, c.k)
		}
		if c.inField != (nd.r >= 0 && (nd.op == opCmpNum || nd.op == opCmpStr || nd.op == opIn || nd.op == opLike)) {
			t.Errorf("case %d (%s): reads column directly = %v, want %v", i, checked, !c.inField, c.inField)
		}
	}
}
