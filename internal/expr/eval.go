package expr

import (
	"fmt"
	"strings"

	"scrub/internal/event"
)

// Row is the evaluation context of Compile's closures: a single event, a
// joined event pair, or a closed window's aggregate results. (A Ctx reads
// events and tuple rows through bound slots instead.)
type Row interface {
	// Field returns the value of a (qualified) field reference.
	Field(typ, name string) event.Value
	// Agg returns the i'th aggregate result; only meaningful after a
	// window closes.
	Agg(i int) event.Value
}

// EventRow adapts one event as a Row. Field type qualifiers are checked so
// a join-compiled expression cannot silently read the wrong side.
type EventRow struct {
	Event *event.Event
}

// Field implements Row.
func (r EventRow) Field(typ, name string) event.Value {
	if typ != "" && typ != r.Event.Schema.Name() {
		return event.Invalid
	}
	return r.Event.Get(name)
}

// Agg implements Row; events carry no aggregates.
func (EventRow) Agg(int) event.Value { return event.Invalid }

// Evaluator is a compiled expression.
type Evaluator func(Row) event.Value

// Compile lowers a checked tree into an evaluator closure. The tree must
// have passed Check (field references resolved, Calls replaced); Compile
// returns an error on malformed trees rather than panicking at query time.
func Compile(n Node) (Evaluator, error) {
	switch t := n.(type) {
	case Lit:
		v := t.Val
		return func(Row) event.Value { return v }, nil

	case FieldRef:
		typ, name := t.Type, t.Name
		return func(r Row) event.Value { return r.Field(typ, name) }, nil

	case Unary:
		x, err := Compile(t.X)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case OpNot:
			return func(r Row) event.Value {
				b, ok := x(r).AsBool()
				if !ok {
					return event.Invalid
				}
				return event.Bool(!b)
			}, nil
		case OpNeg:
			return func(r Row) event.Value {
				v := x(r)
				if i, ok := v.AsInt(); ok {
					return event.Int(-i)
				}
				if f, ok := v.AsFloat(); ok {
					return event.Float(-f)
				}
				return event.Invalid
			}, nil
		default:
			return nil, fmt.Errorf("expr: compile: bad unary op %s", t.Op)
		}

	case Binary:
		l, err := Compile(t.L)
		if err != nil {
			return nil, err
		}
		r, err := Compile(t.R)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			return compileArith(t.Op, l, r), nil
		case OpEq, OpNe:
			op := t.Op
			return func(row Row) event.Value {
				return eqValue(op, l(row), r(row))
			}, nil
		case OpLt, OpLe, OpGt, OpGe:
			op := t.Op
			return func(row Row) event.Value {
				return cmpValue(op, l(row), r(row))
			}, nil
		case OpAnd:
			return func(row Row) event.Value {
				lb, lok := l(row).AsBool()
				if lok && !lb {
					return event.Bool(false)
				}
				rb, rok := r(row).AsBool()
				if rok && !rb {
					return event.Bool(false)
				}
				if !lok || !rok {
					return event.Invalid
				}
				return event.Bool(true)
			}, nil
		case OpOr:
			return func(row Row) event.Value {
				lb, lok := l(row).AsBool()
				if lok && lb {
					return event.Bool(true)
				}
				rb, rok := r(row).AsBool()
				if rok && rb {
					return event.Bool(true)
				}
				if !lok || !rok {
					return event.Invalid
				}
				return event.Bool(false)
			}, nil
		case OpContains:
			return func(row Row) event.Value {
				return containsValue(l(row), r(row))
			}, nil
		case OpLike:
			m, err := likeFor(t.R)
			if err != nil {
				return nil, err
			}
			return func(row Row) event.Value {
				s, ok := l(row).AsStr()
				if !ok {
					return event.Invalid
				}
				return event.Bool(m.match(s))
			}, nil
		default:
			return nil, fmt.Errorf("expr: compile: bad binary op %s", t.Op)
		}

	case In:
		x, err := Compile(t.X)
		if err != nil {
			return nil, err
		}
		lits := make([]event.Value, len(t.List))
		for i, e := range t.List {
			le, ok := e.(Lit)
			if !ok {
				return nil, fmt.Errorf("expr: compile: in-list element %d is not a literal", i)
			}
			lits[i] = le.Val
		}
		negate := t.Negate
		return func(row Row) event.Value {
			return inValue(x(row), lits, negate)
		}, nil

	case AggRef:
		idx := t.Index
		return func(r Row) event.Value { return r.Agg(idx) }, nil

	case Call:
		return nil, fmt.Errorf("expr: compile: unresolved call %s (plan the query first)", t.Name)

	default:
		return nil, fmt.Errorf("expr: compile: unknown node %T", n)
	}
}

func compileArith(op Op, l, r Evaluator) Evaluator {
	return func(row Row) event.Value {
		return arithValue(op, l(row), r(row))
	}
}

// The scalar helpers below are the single definition of each operator's
// runtime semantics. Both execution engines — the closure compiler above
// and the shared-program interpreter in prog.go — call them, so the two
// are bit-identical by construction, not by parallel maintenance.

// arithValue applies an arithmetic operator: int op int stays exact
// (except /, which is always float), anything else widens to float,
// division/modulo by zero is Invalid.
func arithValue(op Op, a, b event.Value) event.Value {
	ai, aIsInt := a.AsInt()
	bi, bIsInt := b.AsInt()
	if aIsInt && bIsInt {
		switch op {
		case OpAdd:
			return event.Int(ai + bi)
		case OpSub:
			return event.Int(ai - bi)
		case OpMul:
			return event.Int(ai * bi)
		case OpMod:
			if bi == 0 {
				return event.Invalid
			}
			return event.Int(ai % bi)
		case OpDiv:
			if bi == 0 {
				return event.Invalid
			}
			return event.Float(float64(ai) / float64(bi))
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return event.Invalid
	}
	switch op {
	case OpAdd:
		return event.Float(af + bf)
	case OpSub:
		return event.Float(af - bf)
	case OpMul:
		return event.Float(af * bf)
	case OpDiv:
		if bf == 0 {
			return event.Invalid
		}
		return event.Float(af / bf)
	default: // OpMod on floats is rejected by Check
		return event.Invalid
	}
}

// eqValue applies = / != with SQL NULL semantics: an invalid operand
// poisons the comparison.
func eqValue(op Op, a, b event.Value) event.Value {
	if !a.IsValid() || !b.IsValid() {
		return event.Invalid
	}
	return event.Bool(a.Equal(b) == (op == OpEq))
}

// cmpValue applies an ordering operator via Value.Compare.
func cmpValue(op Op, a, b event.Value) event.Value {
	c, ok := a.Compare(b)
	if !ok {
		return event.Invalid
	}
	switch op {
	case OpLt:
		return event.Bool(c < 0)
	case OpLe:
		return event.Bool(c <= 0)
	case OpGt:
		return event.Bool(c > 0)
	default:
		return event.Bool(c >= 0)
	}
}

// containsValue applies `contains`: list membership when the left side is
// a list, substring match when both sides are strings.
func containsValue(lv, rv event.Value) event.Value {
	if list, ok := lv.AsList(); ok {
		if !rv.IsValid() {
			return event.Invalid
		}
		for _, e := range list {
			if e.Equal(rv) {
				return event.Bool(true)
			}
		}
		return event.Bool(false)
	}
	a, aok := lv.AsStr()
	b, bok := rv.AsStr()
	if !aok || !bok {
		return event.Invalid
	}
	return event.Bool(strings.Contains(a, b))
}

// inValue applies IN / NOT IN over a literal list (first match wins; an
// invalid probe is Invalid).
func inValue(v event.Value, lits []event.Value, negate bool) event.Value {
	if !v.IsValid() {
		return event.Invalid
	}
	for _, lv := range lits {
		if v.Equal(lv) {
			return event.Bool(!negate)
		}
	}
	return event.Bool(negate)
}

// likeMatcher is a pre-compiled SQL LIKE pattern: % matches any run
// (including empty), _ matches exactly one byte. Matching is byte-wise and
// case-sensitive. A struct (rather than a closure) so the shared-program
// interpreter can hold it in a node and scrubvet can chase match
// statically.
type likeMatcher struct {
	pat string // as written, which a ProgramBuilder finds the matcher by
	// chunks are the literal runs between % separators: the first anchors
	// the start, the last anchors the end, the middle ones float in order.
	chunks []string
}

// likeFor compiles the right-hand side of a LIKE, which must be a string
// literal.
func likeFor(r Node) (likeMatcher, error) {
	pat, ok := r.(Lit)
	if !ok {
		return likeMatcher{}, fmt.Errorf("expr: compile: like pattern must be a literal")
	}
	ps, ok := pat.Val.AsStr()
	if !ok {
		return likeMatcher{}, fmt.Errorf("expr: compile: like pattern must be a string")
	}
	return likeMatcher{pat: ps, chunks: strings.Split(ps, "%")}, nil
}

// match reports whether s matches the pattern.
func (m likeMatcher) match(s string) bool {
	chunks := m.chunks
	// Fast path: no % at all → exact match with _ wildcards.
	if len(chunks) == 1 {
		return matchChunk(s, chunks[0]) && len(s) == len(chunks[0])
	}
	// Anchor the first chunk.
	first := chunks[0]
	if len(s) < len(first) || !matchChunk(s[:len(first)], first) {
		return false
	}
	s = s[len(first):]
	// Anchor the last chunk.
	last := chunks[len(chunks)-1]
	if len(s) < len(last) || !matchChunk(s[len(s)-len(last):], last) {
		return false
	}
	tail := s[:len(s)-len(last)]
	// Middle chunks must appear in order.
	for _, c := range chunks[1 : len(chunks)-1] {
		if c == "" {
			continue
		}
		idx := indexChunk(tail, c)
		if idx < 0 {
			return false
		}
		tail = tail[idx+len(c):]
	}
	return true
}

// matchChunk reports whether s matches chunk exactly, where '_' in chunk
// matches any single byte. len(s) must equal len(chunk) for a match.
func matchChunk(s, chunk string) bool {
	if len(s) != len(chunk) {
		return false
	}
	for i := 0; i < len(chunk); i++ {
		if chunk[i] != '_' && chunk[i] != s[i] {
			return false
		}
	}
	return true
}

// indexChunk finds the first position where chunk (with '_' wildcards)
// matches inside s, or -1.
func indexChunk(s, chunk string) int {
	if len(chunk) == 0 {
		return 0
	}
	for i := 0; i+len(chunk) <= len(s); i++ {
		if matchChunk(s[i:i+len(chunk)], chunk) {
			return i
		}
	}
	return -1
}

// Predicate wraps an evaluator as a boolean filter: missing or non-boolean
// results reject the row, the NULL-filtering semantics of SQL WHERE.
func Predicate(e Evaluator) func(Row) bool {
	return func(r Row) bool {
		b, ok := e(r).AsBool()
		return ok && b
	}
}
