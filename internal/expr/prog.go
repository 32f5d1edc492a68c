package expr

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"scrub/internal/event"
)

// A Program is a set of expression trees compiled into one flat array of
// typed instructions with every distinct subexpression interned exactly
// once. Many predicates over the same event type compile into one
// Program; per event an evaluation context then computes each distinct
// node at most once and fans the result out to every expression that
// contains it — the host agent's shared query index (DESIGN.md §14) is
// built on this.
//
// It is a register program: a node's result is a one-byte state plus a
// 64-bit payload, never an event.Value. Field references are bound to
// column slots once per schema and read in the event by pointer, and the
// predicates troubleshooters actually write — `field <cmp> constant`,
// `IN`, `LIKE`, and/or over them — are specialised by the constant's kind
// when interned and guarded by the value's kind when run. Whatever the
// guard turns away (a value of another kind, a missing one, a list)
// goes, boxed, through the scalar helpers in eval.go, which Compile's
// closures (the reference the tests hold this to) call too, so every
// operator has one definition. The call graph is static: scrubvet's
// hotpath analyzer chases Ctx.Bool/Value through eval into those helpers.
// ScrubCentral runs one Program per query over tuple rows (BindTuples,
// BindKeys).

// opcode selects what an instruction computes.
type opcode uint8

const (
	// Leaves are read where they live and never occupy a register of
	// their own unless something forces them by id.
	opLit   opcode = iota + 1 // scalar in k/imm; a string or list is vals[r]
	opField                   // fields[r]
	opAgg                     // Row.Agg(imm)

	// Boolean structure, on child states alone.
	opNot
	opAnd
	opOr

	// Specialised by the literal operand's kind. l is the other operand's
	// node, r its field ordinal when it is a field reference (else -1);
	// the literal is imm, or imm indexes a side table.
	opCmpNum // l <cmp> int, float or time literal of kind k
	opCmpStr // l <cmp> vals[imm], a string
	opIn     // l [not] in lists[imm]; k is the list's kind when all int or all string
	opLike   // l like likes[imm]

	// Registers in, register out.
	opNeg
	opArith // int∘int inline, anything else through arithValue

	// Boxed operands, computed by the helpers in eval.go.
	opCmp
	opContains
)

// inst is one interned subexpression. Strings, in-lists and LIKE matchers
// sit in the Program's side tables so the instruction stays three words.
type inst struct {
	op     opcode
	cmp    Op         // comparison or arithmetic operator
	k      event.Kind // see the opcodes
	negate bool       // opIn: NOT IN
	l, r   int32      // child node ids, or as the opcode says
	imm    uint64
}

// fieldName is a field reference as written; a Ctx resolves it to a
// column slot once per schema.
type fieldName struct{ typ, name string }

// Program is an immutable shared evaluation plan. Build one with
// ProgramBuilder; evaluate with a Ctx.
type Program struct {
	nodes  []inst
	fields []fieldName
	vals   []event.Value   // string and list literals
	lists  [][]event.Value // in-lists
	likes  []likeMatcher
}

// NumNodes reports the number of distinct interned subexpressions.
func (p *Program) NumNodes() int { return len(p.nodes) }

// ProgramBuilder interns expression trees into a Program. Trees should be
// canonicalized first (Canon) so that equivalent-but-differently-spelled
// subexpressions intern to the same node; interning is correct (just less
// shared) without it. A node is keyed on its instruction: its children
// are node ids and every side table holds a value once, so the inst is
// the subexpression's identity. Nodes and string literals are found
// through an open-addressed index over the builder's own table; fields,
// in-lists and LIKE patterns, a handful per program, by a scan.
type ProgramBuilder struct {
	p    Program // nodes and side tables so far
	ids  index   // over p.nodes
	strs index   // over p.vals: string literals by content, list ones by identity (ql parses none)
}

// NewProgramBuilder returns an empty builder.
func NewProgramBuilder() *ProgramBuilder { return &ProgramBuilder{ids: newIndex(0), strs: newIndex(0)} }

// Keep returns a builder holding only what roots reach in p, side-table
// entries included, and the roots' ids in it (a negative root stays as it
// is). That is what interning the roots' trees afresh makes, so it keeps
// the literal a specialised comparison folded into its immediate too.
func (p *Program) Keep(roots []int32) (*ProgramBuilder, []int32) {
	// Sized for all of p, so that neither index is rebuilt while it fills.
	b := &ProgramBuilder{ids: newIndex(len(p.nodes)), strs: newIndex(len(p.vals))}
	b.p.nodes = make([]inst, 0, len(p.nodes))
	ids := make([]int32, len(p.nodes)) // a copied node's new id + 1
	var keep func(e int32) int32
	keep = func(e int32) int32 {
		if ids[e] > 0 {
			return ids[e] - 1
		}
		nd := p.nodes[e]
		switch nd.op {
		case opLit:
			if nd.k == event.KindString || nd.k == event.KindList {
				nd.r = b.val(p.vals[nd.r])
			}
		case opField:
			nd.r = b.field(p.fields[nd.r])
		case opNot, opNeg:
			nd.l = keep(nd.l)
		case opAnd, opOr, opArith, opCmp, opContains:
			nd.l, nd.r = keep(nd.l), keep(nd.r)
		case opCmpNum, opCmpStr, opIn, opLike:
			nd.l = keep(nd.l)
			nd.r = b.fieldOf(nd.l)
			switch nd.op {
			case opCmpNum:
				b.node(inst{op: opLit, k: nd.k, r: -1, imm: nd.imm})
			case opCmpStr:
				s := b.val(p.vals[nd.imm])
				b.node(inst{op: opLit, k: event.KindString, r: s})
				nd.imm = uint64(s)
			case opIn:
				l := p.lists[nd.imm]
				nd.imm = uint64(scan(&b.p.lists, l, func(m []event.Value) bool { return slices.Equal(m, l) }))
			case opLike:
				m := p.likes[nd.imm]
				nd.imm = uint64(scan(&b.p.likes, m, func(n likeMatcher) bool { return n.pat == m.pat }))
			}
		}
		// Distinct nodes of p stay distinct once their children are
		// renamed: only a literal can be in the builder already, the one a
		// comparison folded (above).
		if nd.op == opLit {
			ids[e] = b.node(nd) + 1
		} else {
			ids[e] = enter(&b.ids, &b.p.nodes, nd, hashInst(nd), hashInst) + 1
		}
		return ids[e] - 1
	}
	kept := slices.Clone(roots)
	for i, r := range kept {
		if r >= 0 {
			kept[i] = keep(r)
		}
	}
	return b, kept
}

// node, val and field return an instruction's, a string or list
// literal's and a field reference's position in the builder's tables,
// appending it on its first use.
func (b *ProgramBuilder) node(nd inst) int32 { return intern(&b.ids, &b.p.nodes, nd, hashInst) }

func (b *ProgramBuilder) val(v event.Value) int32 { return intern(&b.strs, &b.p.vals, v, hashVal) }

func (b *ProgramBuilder) field(f fieldName) int32 {
	return scan(&b.p.fields, f, func(g fieldName) bool { return g == f })
}

// Intern adds a checked tree and returns its node id, reusing every
// already-interned subexpression; a tree the builder holds allocates
// nothing. The same requirements as Compile apply: field references
// resolved, no Call nodes, literal like patterns and in-lists.
func (b *ProgramBuilder) Intern(n Node) (int32, error) {
	var nd inst
	switch t := n.(type) {
	case Lit:
		nd = inst{op: opLit, k: t.Val.Kind(), r: -1}
		switch nd.k {
		case event.KindString, event.KindList:
			nd.r = b.val(t.Val)
		default:
			_, nd.imm = t.Val.Raw()
		}
	case FieldRef:
		nd = inst{op: opField, r: b.field(fieldName{t.Type, t.Name})}
	case Unary:
		x, err := b.Intern(t.X)
		if err != nil {
			return -1, err
		}
		switch t.Op {
		case OpNot:
			nd = inst{op: opNot, l: x}
		case OpNeg:
			nd = inst{op: opNeg, l: x}
		default:
			return -1, fmt.Errorf("expr: intern: bad unary op %s", t.Op)
		}
	case Binary:
		l, err := b.Intern(t.L)
		if err != nil {
			return -1, err
		}
		if t.Op == OpLike {
			i := -1
			if pat, ok := t.R.(Lit); ok {
				if ps, ok := pat.Val.AsStr(); ok {
					i = slices.IndexFunc(b.p.likes, func(m likeMatcher) bool { return m.pat == ps })
				}
			}
			if i < 0 {
				m, err := likeFor(t.R)
				if err != nil {
					return -1, err
				}
				i = len(b.p.likes)
				b.p.likes = append(b.p.likes, m)
			}
			nd = inst{op: opLike, l: l, r: b.fieldOf(l), imm: uint64(i)}
			break
		}
		r, err := b.Intern(t.R)
		if err != nil {
			return -1, err
		}
		switch t.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			nd = inst{op: opArith, cmp: t.Op, l: l, r: r}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			nd = b.compare(t.Op, l, r)
		case OpAnd:
			nd = inst{op: opAnd, l: l, r: r}
		case OpOr:
			nd = inst{op: opOr, l: l, r: r}
		case OpContains:
			nd = inst{op: opContains, l: l, r: r}
		default:
			return -1, fmt.Errorf("expr: intern: bad binary op %s", t.Op)
		}
	case In:
		x, err := b.Intern(t.X)
		if err != nil {
			return -1, err
		}
		// In-lists are few, so one is found by a scan.
		i := slices.IndexFunc(b.p.lists, func(l []event.Value) bool {
			return slices.EqualFunc(l, t.List, func(v event.Value, e Node) bool {
				lit, ok := e.(Lit)
				return ok && v == lit.Val
			})
		})
		if i < 0 {
			lits := make([]event.Value, len(t.List))
			for j, e := range t.List {
				lit, ok := e.(Lit)
				if !ok {
					return -1, fmt.Errorf("expr: intern: in-list element %d is not a literal", j)
				}
				lits[j] = lit.Val
			}
			i = len(b.p.lists)
			b.p.lists = append(b.p.lists, lits)
		}
		nd = inst{op: opIn, k: listKind(b.p.lists[i]), negate: t.Negate, l: x, r: b.fieldOf(x), imm: uint64(i)}
	case AggRef:
		nd = inst{op: opAgg, imm: uint64(t.Index)}
	default:
		return -1, fmt.Errorf("expr: intern: unsupported node %T", n)
	}
	return b.node(nd), nil
}

// intern returns v's position in *table, appending v there on its first
// use; x indexes the table by hash, and is rebuilt over the grown table
// when it fills.
func intern[T comparable](x *index, table *[]T, v T, hash func(T) uint64) int32 {
	h := hash(v)
	mask := uint64(len(*x) - 1)
	for i := h & mask; (*x)[i] != 0; i = (i + 1) & mask {
		if e := (*x)[i] - 1; (*table)[e] == v {
			return e
		}
	}
	return enter(x, table, v, h, hash)
}

// enter appends v, whose hash is h and which *table does not hold, and
// records it in x, rebuilding x when it is too full.
func enter[T any](x *index, table *[]T, v T, h uint64, hash func(T) uint64) int32 {
	e := int32(len(*table))
	*table = append(*table, v)
	if x.add(h, e) {
		*x = newIndex(len(*table))
		for j, w := range *table {
			x.add(hash(w), int32(j))
		}
	}
	return e
}

// scan returns the position in *table of the first entry same accepts,
// appending v when there is none: the side tables a builder scans.
func scan[T any](table *[]T, v T, same func(T) bool) int32 {
	i := slices.IndexFunc(*table, same)
	if i < 0 {
		i = len(*table)
		*table = append(*table, v)
	}
	return int32(i)
}

// An index finds the entries of one of a builder's tables by hash: open
// addressing with linear probing, each slot an entry's position + 1 or 0
// when empty, at most three quarters full so that every probe ends.
type index []int32

// newIndex returns an empty index for n entries: a power of two over 4n/3
// slots, at least 8.
func newIndex(n int) index { return make(index, 1<<max(3, bits.Len(uint(4*n/3)))) }

// add records entry e, the table's last, whose hash is h, and reports
// whether the index is now too full to take another.
func (x index) add(h uint64, e int32) bool {
	mask := uint64(len(x) - 1)
	i := h & mask
	for x[i] != 0 {
		i = (i + 1) & mask
	}
	x[i] = e + 1
	return 4*int(e+1) > 3*len(x)
}

// hashInst hashes an instruction: its words multiplied apart, then one
// multiply-shift round so that every bit reaches the low ones an index
// masks. negate is left out: an IN and its NOT IN share a probe run, and
// == tells them apart.
func hashInst(nd inst) uint64 {
	h := (uint64(nd.op)|uint64(nd.cmp)<<8|uint64(nd.k)<<16|uint64(uint32(nd.r))<<32)*0x9e3779b97f4a7c15 ^
		uint64(uint32(nd.l))*0xbf58476d1ce4e5b9 ^ nd.imm*0x94d049bb133111eb
	h = (h ^ h>>29) * 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// hashVal hashes a string literal's content. A list literal hashes as the
// empty string does, and == tells the two apart.
func hashVal(v event.Value) uint64 { return maphash.String(strSeed, v.RawStr()) }

var strSeed = maphash.MakeSeed()

// fieldOf is node id's field ordinal when it is a field reference, -1
// otherwise: a specialised instruction then reads the column directly
// instead of forcing the field node.
func (b *ProgramBuilder) fieldOf(id int32) int32 {
	if nd := &b.p.nodes[id]; nd.op == opField {
		return nd.r
	}
	return -1
}

// compare picks the instruction for l <op> r: specialised when one side
// is an int, float, time or string literal, boxed otherwise. A literal on
// the left moves to the right with the operator mirrored, which both
// Value.Compare and Value.Equal are symmetric under.
func (b *ProgramBuilder) compare(op Op, l, r int32) inst {
	x, lit, xop := l, &b.p.nodes[r], op
	if lit.op != opLit && b.p.nodes[l].op == opLit {
		x, lit, xop = r, &b.p.nodes[l], mirror[op]
	}
	if lit.op == opLit {
		switch lit.k {
		case event.KindInt, event.KindFloat, event.KindTime:
			return inst{op: opCmpNum, cmp: xop, k: lit.k, l: x, r: b.fieldOf(x), imm: lit.imm}
		case event.KindString:
			return inst{op: opCmpStr, cmp: xop, l: x, r: b.fieldOf(x), imm: uint64(lit.r)}
		}
	}
	return inst{op: opCmp, cmp: op, l: l, r: r}
}

// mirror maps a comparison to the one that holds with its operands swapped.
var mirror = [...]Op{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}

// listKind is the kind every element of an in-list has when that kind is
// int or string — the two membership tests run unboxed — else invalid.
func listKind(lits []event.Value) event.Kind {
	k := event.KindInvalid
	for i, v := range lits {
		if i == 0 && (v.Kind() == event.KindInt || v.Kind() == event.KindString) {
			k = v.Kind()
		}
		if v.Kind() != k {
			return event.KindInvalid
		}
	}
	return k
}

// Build freezes the interned nodes into a Program. The builder remains
// usable; later Interns do not affect already-built Programs.
func (b *ProgramBuilder) Build() *Program {
	p := &b.p
	return &Program{
		nodes:  slices.Clone(p.nodes),
		fields: slices.Clone(p.fields),
		vals:   slices.Clone(p.vals),
		lists:  slices.Clone(p.lists),
		likes:  slices.Clone(p.likes),
	}
}

// state is a node's register tag for the current row. Booleans carry
// their truth in the tag, so and/or/not and Bool never touch a payload;
// every other kind is its event.Kind shifted past them, the payload the
// value's 64 scalar bits. A string or list leaf is only ever tagged: value
// re-reads it where it lives.
type state uint8

const (
	stNone    state = iota // not computed for this row
	stInvalid              // missing, NULL-like
	stFalse
	stTrue
	stInt   = state(event.KindInt) + 2
	stFloat = state(event.KindFloat) + 2
	stTime  = state(event.KindTime) + 2
)

// stateOf tags a raw (kind, payload) pair; kind undoes it for s >= stInt.
func stateOf(k event.Kind, bits uint64) state {
	switch k {
	case event.KindInvalid:
		return stInvalid
	case event.KindBool:
		return stFalse + state(bits&1)
	}
	return state(k) + 2
}

func (s state) kind() event.Kind { return event.Kind(s - 2) }

func boolState(b bool) state {
	if b {
		return stTrue
	}
	return stFalse
}

// Column slots below zero: no such column in the layout (or the
// reference names another event type), and the two system fields.
const (
	slotMissing   = -1
	slotRequestID = -2
	slotTimestamp = -3
)

// missing is what a reference to an absent column reads. Never written.
var missing event.Value

// Tuple is one side of a tuple row: what a host ships of an event — its
// request id, its event time and the projected columns a Binding names.
type Tuple struct {
	RequestID uint64
	TimeNanos int64
	Values    []event.Value
}

// A Binding is a Program's field references resolved against a tuple
// layout; immutable, any number of Ctxs share it.
type Binding struct {
	slots []tupleSlot // per Program.fields entry
}

// tupleSlot is where a field reference reads: a column of one side, or
// that side's system field, or missing (the slot sentinels).
type tupleSlot struct{ side, col int32 }

// BindTuples binds the program's field references (bindTo has the rules)
// to a layout of one or two sides: side i of a row is a Tuple of event
// type types[i] whose Values are columns[i], in order.
//
//scrub:allowalloc(binding is control-plane, once per query)
func (p *Program) BindTuples(types []string, columns [][]string) *Binding {
	b := &Binding{slots: make([]tupleSlot, len(p.fields))}
	p.bindTo(b.slots, types, func(side int, name string) int { return slices.Index(columns[side], name) })
	return b
}

// ReadsTime reports whether the program reads side's event time through
// b: whether any field reference is bound to that side's ts.
func (b *Binding) ReadsTime(side int) bool {
	return slices.Contains(b.slots, tupleSlot{side: int32(side), col: slotTimestamp})
}

// BindKeys binds the program's field references to a one-sided row whose
// Values are the values of keys, in order, as a closed window's group
// keys are: a reference reads the first key of its name and of the type
// it names (any, unqualified); any other reference is missing.
//
//scrub:allowalloc(binding is control-plane, once per query)
func (p *Program) BindKeys(keys []FieldRef) *Binding {
	b := &Binding{slots: make([]tupleSlot, len(p.fields))}
	for i, f := range p.fields {
		b.slots[i] = tupleSlot{col: slotMissing}
		for k, key := range keys {
			if key.Name == f.name && (f.typ == "" || f.typ == key.Type) {
				b.slots[i].col = int32(k)
				break
			}
		}
	}
	return b
}

// bindTo resolves every field reference into slots, deciding what
// EventRow.Field decides per call by name: a reference qualified with a
// side's type reads that side, request_id and ts its header, any other
// name the column col reports (-1: none). An unqualified reference reads
// the first side that has the field; the checker qualifies every
// reference a plan holds. Another type's, or an absent column, is missing.
func (p *Program) bindTo(slots []tupleSlot, types []string, col func(side int, name string) int) {
	for i, f := range p.fields {
		slots[i] = tupleSlot{col: slotMissing}
		for side, typ := range types {
			if f.typ != "" && f.typ != typ {
				continue
			}
			c := int32(col(side, f.name))
			switch f.name {
			case event.FieldRequestID:
				c = slotRequestID
			case event.FieldTimestamp:
				c = slotTimestamp
			}
			if c != slotMissing {
				slots[i] = tupleSlot{side: int32(side), col: c}
				break
			}
		}
	}
}

// Ctx evaluates one Program against one row at a time, memoizing every
// node it computes so shared subexpressions cost one evaluation per row
// regardless of how many expressions contain them. A Ctx is single-
// goroutine; pool Ctxs to share across goroutines. Begin clears the state
// bytes (one memclr); evaluation stays proportional to the nodes actually
// forced (and/or short-circuits never force unreached operands).
type Ctx struct {
	prog *Program
	// sides is the row: a tuple row (BeginTuples), or own, whose side 0 is
	// an event (Begin). Fields are read through slots: the Binding's, or
	// bySchema, bound to schema.
	sides    *[2]Tuple
	slots    []tupleSlot
	aggs     []event.Value // a tuple row's aggregates; an event has none
	own      [2]Tuple
	schema   *event.Schema
	bySchema []tupleSlot
	st       []state
	num      []uint64
	sys      [2]event.Value // request_id and ts, synthesized on read
}

// NewCtx allocates an evaluation context for the program.
//
//scrub:allowalloc(context construction is control-plane; hot paths reuse pooled Ctxs)
func (p *Program) NewCtx() *Ctx {
	return &Ctx{
		prog:     p,
		bySchema: make([]tupleSlot, len(p.fields)),
		st:       make([]state, len(p.nodes)),
		num:      make([]uint64, len(p.nodes)),
	}
}

// Begin starts evaluation of an event, invalidating all memoized results.
//
//scrub:hotpath
func (c *Ctx) Begin(row EventRow) {
	clear(c.st)
	ev := row.Event
	if ev.Schema != c.schema {
		c.bind(ev.Schema)
	}
	c.own[0] = Tuple{RequestID: ev.RequestID, TimeNanos: ev.TimeNanos, Values: ev.Values}
	c.sides, c.slots, c.aggs = &c.own, c.bySchema, nil
}

// BeginTuples starts evaluation of a tuple row read through b, a binding
// of this Ctx's Program: sides[i] is side i of b's layout, and aggregate i
// is aggs[i] (nil: none). The caller may rewrite the row and begin again.
//
//scrub:hotpath
func (c *Ctx) BeginTuples(b *Binding, sides *[2]Tuple, aggs []event.Value) {
	clear(c.st)
	c.sides, c.slots, c.aggs = sides, b.slots, aggs
}

// bind resolves every field reference against a schema, once per schema
// a Ctx meets: the event is a one-sided tuple row of all its fields.
//
//scrub:allowalloc(once per schema a Ctx meets; neither literal escapes, go build -gcflags=-m)
func (c *Ctx) bind(s *event.Schema) {
	c.prog.bindTo(c.bySchema, []string{s.Name()}, func(_ int, name string) int { return s.FieldIndex(name) })
	c.schema = s
}

// Finish releases the row so a pooled Ctx does not pin event payloads
// between uses. Registers hold no pointers.
//
//scrub:hotpath
func (c *Ctx) Finish() {
	c.sides, c.aggs, c.own[0] = nil, nil, Tuple{}
}

// Bool evaluates node id as a predicate: missing or non-boolean results
// reject the row, the NULL-filtering semantics of SQL WHERE (the same
// contract as Predicate).
//
//scrub:hotpath
func (c *Ctx) Bool(id int32) bool {
	return c.force(id) == stTrue
}

// Value evaluates node id and returns its value: a leaf read where it
// lives, anything computed boxed out of its register.
//
//scrub:hotpath
func (c *Ctx) Value(id int32) event.Value {
	nd := &c.prog.nodes[id]
	switch nd.op {
	case opLit:
		if nd.r >= 0 {
			return c.prog.vals[nd.r]
		}
		return event.Scalar(nd.k, nd.imm)
	case opField:
		return *c.field(nd.r)
	case opAgg:
		return c.agg(nd.imm)
	}
	switch s := c.force(id); {
	case s >= stInt:
		return event.Scalar(s.kind(), c.num[id])
	case s >= stFalse:
		return event.Bool(s == stTrue)
	}
	return event.Invalid
}

// agg returns aggregate i of the current row.
func (c *Ctx) agg(i uint64) event.Value {
	if i < uint64(len(c.aggs)) {
		return c.aggs[i]
	}
	return event.Invalid
}

// field returns the value of field reference ord for the current row, in
// place: a column of one of its sides, or a synthesized system field.
func (c *Ctx) field(ord int32) *event.Value {
	s := c.slots[ord]
	t := &c.sides[s.side]
	if uint(s.col) < uint(len(t.Values)) {
		return &t.Values[s.col]
	}
	switch s.col {
	case slotRequestID:
		c.sys[0] = event.Int(int64(t.RequestID))
		return &c.sys[0]
	case slotTimestamp:
		c.sys[1] = event.TimeNanos(t.TimeNanos)
		return &c.sys[1]
	}
	return &missing // unknown column, or Values shorter than the layout
}

// operand reads a specialised instruction's non-literal operand unboxed:
// the column itself when it is a field reference, the child's register
// otherwise. Kinds the typed paths do not take (a boolean register comes
// back as invalid) send them to Value.
func (c *Ctx) operand(nd *inst) (event.Kind, uint64) {
	if nd.r >= 0 {
		return c.field(nd.r).Raw()
	}
	if s := c.force(nd.l); s >= stInt {
		return s.kind(), c.num[nd.l]
	}
	return event.KindInvalid, 0
}

// strOperand is operand for the string-typed instructions.
func (c *Ctx) strOperand(nd *inst) (string, bool) {
	if nd.r >= 0 {
		p := c.field(nd.r)
		k, _ := p.Raw()
		return p.RawStr(), k == event.KindString
	}
	return c.Value(nd.l).AsStr()
}

// force returns the node's state for the current row, computing and
// memoizing it on first use.
func (c *Ctx) force(id int32) state {
	if s := c.st[id]; s != stNone {
		return s
	}
	return c.eval(id)
}

// set stores a boxed result in node id's register.
func (c *Ctx) set(id int32, v event.Value) state {
	k, bits := v.Raw()
	c.num[id] = bits
	return stateOf(k, bits)
}

// tag is set for a helper's boolean-or-invalid result: the tag is all of it.
func tag(v event.Value) state { return stateOf(v.Raw()) }

// eval computes one node. Operand forcing is lazy where the operator is
// (and/or short-circuit exactly as the compiled closures do) and eager
// where it is not, preserving Compile's evaluation order.
func (c *Ctx) eval(id int32) state {
	nd := &c.prog.nodes[id]
	s := stInvalid
	switch nd.op {
	case opLit:
		c.num[id] = nd.imm
		s = stateOf(nd.k, nd.imm)
	case opField:
		k, bits := c.field(nd.r).Raw()
		c.num[id] = bits
		s = stateOf(k, bits)
	case opAgg:
		s = c.set(id, c.agg(nd.imm))
	case opNot:
		switch c.force(nd.l) {
		case stFalse:
			s = stTrue
		case stTrue:
			s = stFalse
		}
	case opAnd:
		l := c.force(nd.l)
		if l == stFalse {
			s = stFalse
			break
		}
		if r := c.force(nd.r); r == stFalse {
			s = stFalse
		} else if l == stTrue && r == stTrue {
			s = stTrue
		}
	case opOr:
		l := c.force(nd.l)
		if l == stTrue {
			s = stTrue
			break
		}
		if r := c.force(nd.r); r == stTrue {
			s = stTrue
		} else if l == stFalse && r == stFalse {
			s = stFalse
		}
	case opCmpNum:
		s = c.cmpNum(nd)
	case opCmpStr:
		s = c.cmpStr(nd)
	case opIn:
		s = c.in(nd)
	case opLike:
		if str, ok := c.strOperand(nd); ok {
			s = boolState(c.prog.likes[nd.imm].match(str))
		}
	case opNeg:
		switch c.force(nd.l) {
		case stInt:
			c.num[id] = -c.num[nd.l]
			s = stInt
		case stFloat:
			c.num[id] = c.num[nd.l] ^ 1<<63 // the sign bit: what -f is, NaN included
			s = stFloat
		}
	case opArith:
		s = c.arith(id, nd)
	case opCmp:
		s = tag(compareValue(nd.cmp, c.Value(nd.l), c.Value(nd.r)))
	case opContains:
		s = tag(containsValue(c.Value(nd.l), c.Value(nd.r)))
	}
	c.st[id] = s
	return s
}

// compareValue applies any of the six comparison operators.
func compareValue(op Op, a, b event.Value) event.Value {
	if op == OpEq || op == OpNe {
		return eqValue(op, a, b)
	}
	return cmpValue(op, a, b)
}

// holds is eqValue/cmpValue on two ints, two floats or two strings.
// Value.Compare orders a NaN as equal to everything (neither less nor
// greater), so <= and >= are written as the negations of > and <, which
// is the same thing for every other operand; Value.Equal is ==.
func holds[T int64 | float64 | string](op Op, a, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return !(a > b)
	case OpGt:
		return a > b
	}
	return !(a < b)
}

// widen is Value.AsFloat on a raw int or float.
func widen(k event.Kind, bits uint64) float64 {
	if k == event.KindInt {
		return float64(int64(bits))
	}
	return math.Float64frombits(bits)
}

// cmpNum compares against an int, float or time literal: same-kind ints
// and times as integers, any int/float mix widened — the cases
// Value.Compare and Value.Equal distinguish — and every other operand
// kind through them.
//
//scrub:hotpath
func (c *Ctx) cmpNum(nd *inst) state {
	k, bits := c.operand(nd)
	switch {
	case k == nd.k && k != event.KindFloat:
		return boolState(holds(nd.cmp, int64(bits), int64(nd.imm)))
	case (k == event.KindInt || k == event.KindFloat) && nd.k != event.KindTime:
		return boolState(holds(nd.cmp, widen(k, bits), widen(nd.k, nd.imm)))
	}
	return tag(compareValue(nd.cmp, c.Value(nd.l), event.Scalar(nd.k, nd.imm)))
}

// cmpStr compares against a string literal.
//
//scrub:hotpath
func (c *Ctx) cmpStr(nd *inst) state {
	lit := &c.prog.vals[nd.imm]
	if s, ok := c.strOperand(nd); ok {
		return boolState(holds(nd.cmp, s, lit.RawStr()))
	}
	return tag(compareValue(nd.cmp, c.Value(nd.l), *lit))
}

// in tests membership in a literal list: an int among all-int elements
// and a string among all-string elements by payload, anything else by
// inValue.
//
//scrub:hotpath
func (c *Ctx) in(nd *inst) state {
	list := c.prog.lists[nd.imm]
	switch nd.k {
	case event.KindInt:
		if k, bits := c.operand(nd); k == event.KindInt {
			for i := range list {
				if _, e := list[i].Raw(); e == bits {
					return boolState(!nd.negate)
				}
			}
			return boolState(nd.negate)
		}
	case event.KindString:
		if s, ok := c.strOperand(nd); ok {
			for i := range list {
				if list[i].RawStr() == s {
					return boolState(!nd.negate)
				}
			}
			return boolState(nd.negate)
		}
	}
	return tag(inValue(c.Value(nd.l), list, nd.negate))
}

// arith applies an arithmetic operator: two int registers inline (the
// first half of arithValue), anything else through arithValue itself.
//
//scrub:hotpath
func (c *Ctx) arith(id int32, nd *inst) state {
	if c.force(nd.l) != stInt || c.force(nd.r) != stInt {
		return c.set(id, arithValue(nd.cmp, c.Value(nd.l), c.Value(nd.r)))
	}
	a, b := int64(c.num[nd.l]), int64(c.num[nd.r])
	switch nd.cmp {
	case OpAdd:
		a += b
	case OpSub:
		a -= b
	case OpMul:
		a *= b
	case OpMod:
		if b == 0 {
			return stInvalid
		}
		a %= b
	default: // OpDiv
		if b == 0 {
			return stInvalid
		}
		c.num[id] = math.Float64bits(float64(a) / float64(b))
		return stFloat
	}
	c.num[id] = uint64(a)
	return stInt
}
