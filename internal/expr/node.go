// Package expr defines the expression trees used inside Scrub queries —
// selection predicates, projections, and the scalar arithmetic wrapped
// around aggregates (e.g. `1000*AVG(impression.cost)`) — together with
// type checking and compilation into fast closures evaluated per event.
//
// The package is deliberately independent of the query grammar: the ql
// parser produces these nodes, the host agent compiles selection and
// projection from them, and ScrubCentral compiles the post-aggregation
// select expressions.
package expr

import (
	"fmt"
	"strings"

	"scrub/internal/agg"
	"scrub/internal/event"
)

// Op enumerates the operators of the expression language.
type Op uint8

// Operators.
const (
	OpInvalid Op = iota
	// Arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	// Comparison.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Boolean.
	OpAnd
	OpOr
	OpNot
	// Unary arithmetic.
	OpNeg
	// String matching.
	OpLike
	OpContains
)

// String returns the query-language spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpNot:
		return "not"
	case OpNeg:
		return "-"
	case OpLike:
		return "like"
	case OpContains:
		return "contains"
	default:
		return "?"
	}
}

// Node is an expression-tree node.
type Node interface {
	fmt.Stringer
	node()
}

// Lit is a literal constant.
type Lit struct {
	Val event.Value
}

func (Lit) node() {}

func (l Lit) String() string {
	if s, ok := l.Val.AsStr(); ok {
		return fmt.Sprintf("%q", s)
	}
	return l.Val.String()
}

// FieldRef names an event field, optionally qualified with the event type
// (`bid.user_id` vs `user_id`). Unqualified references are resolved during
// validation; in join queries ambiguous unqualified names are rejected.
type FieldRef struct {
	Type string // event type; "" until resolved for single-source queries
	Name string
}

func (FieldRef) node() {}

func (f FieldRef) String() string {
	if f.Type == "" {
		return f.Name
	}
	return f.Type + "." + f.Name
}

// Unary applies OpNot or OpNeg.
type Unary struct {
	Op Op
	X  Node
}

func (Unary) node() {}

func (u Unary) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("(not %s)", u.X)
	}
	return fmt.Sprintf("(%s%s)", u.Op, u.X)
}

// Binary applies a binary operator.
type Binary struct {
	Op   Op
	L, R Node
}

func (Binary) node() {}

func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// In tests membership of X in a literal list.
type In struct {
	X      Node
	List   []Node
	Negate bool
}

func (In) node() {}

func (i In) String() string {
	parts := make([]string, len(i.List))
	for j, n := range i.List {
		parts[j] = n.String()
	}
	op := "in"
	if i.Negate {
		op = "not in"
	}
	return fmt.Sprintf("(%s %s (%s))", i.X, op, strings.Join(parts, ", "))
}

// Call is a function application as parsed. The validator resolves calls
// into aggregates (the only functions the language defines); unresolved
// calls are rejected.
type Call struct {
	Name string
	Args []Node
	Star bool // COUNT(*)
}

func (Call) node() {}

func (c Call) String() string {
	if c.Star {
		return c.Name + "(*)"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// AggRef replaces a Call during planning: it refers to the Index'th
// aggregator of the query. Evaluated only at ScrubCentral, against a row
// that exposes aggregate results.
type AggRef struct {
	Index int
	Spec  agg.Spec
	Arg   Node // the aggregate's input expression (nil for COUNT(*))
}

func (AggRef) node() {}

func (a AggRef) String() string {
	if a.Arg == nil {
		return fmt.Sprintf("agg[%d]:%s", a.Index, a.Spec.Kind)
	}
	return fmt.Sprintf("agg[%d]:%s(%s)", a.Index, a.Spec.Kind, a.Arg)
}

// Walk visits every node of the tree in depth-first order. The visitor
// returns false to prune a subtree.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	switch t := n.(type) {
	case Unary:
		Walk(t.X, visit)
	case Binary:
		Walk(t.L, visit)
		Walk(t.R, visit)
	case In:
		Walk(t.X, visit)
		for _, e := range t.List {
			Walk(e, visit)
		}
	case Call:
		for _, a := range t.Args {
			Walk(a, visit)
		}
	case AggRef:
		Walk(t.Arg, visit)
	}
}

// HasAggregate reports whether the tree contains an aggregate call or
// reference.
func HasAggregate(n Node) bool {
	found := false
	Walk(n, func(x Node) bool {
		switch c := x.(type) {
		case AggRef:
			found = true
			return false
		case Call:
			if _, ok := agg.ParseKind(c.Name); ok || strings.EqualFold(c.Name, "count") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
