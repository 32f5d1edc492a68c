package expr

import (
	"bytes"
	"sort"

	"scrub/internal/event"
)

// Canonicalization rewrites a checked tree into a normal form under which
// semantically identical predicates — and their shared subexpressions —
// encode to identical bytes, so the shared-program builder (prog.go) can
// intern one node per distinct computation across many queries. Every
// rewrite below preserves per-row results exactly (see the notes on each),
// including the three-valued NULL semantics: a canonicalized predicate
// accepts and rejects precisely the same rows as the original.
//
// Rules applied:
//
//   - Constant folding: an all-literal subtree is replaced by its value,
//     evaluated by Compile's closures, the reference the register program
//     is held to node for node (so folded arithmetic is bit-identical to
//     evaluated arithmetic). Subtrees that fold to Invalid are left
//     alone — they are rare, and keeping them preserves encodability.
//   - and/or chains are flattened, deduplicated, and sorted by canonical
//     encoding. Safe because Kleene three-valued and/or are commutative,
//     associative, and idempotent: `and` is min and `or` is max over the
//     ordering false < invalid < true, which also makes the boolean
//     identity operand (true for and, false for or) removable and the
//     annihilator (false for and, true for or) a constant fold.
//   - +, *, = and != order their operands canonically. Int add/mul wrap
//     commutatively; IEEE float add/mul are commutative up to NaN payload,
//     which no Scrub operator observes (Equal/Compare/String treat all
//     NaNs alike); Value.Equal is symmetric. Chains of + and * are NOT
//     reassociated — float arithmetic is not associative.
//   - Ordering comparisons (<, <=, >, >=), -, /, %, like and contains are
//     not commutative and keep their operand order.
//   - in-lists are sorted by encoding and deduplicated; membership is a
//     first-match scan, so element order and duplicates are unobservable.
//
// Canon is control-plane code (query start/rebuild), never per-event.

// Canon returns the canonical form of a checked tree, or the tree
// unchanged if any part of it cannot be canonicalized (unresolved Call
// nodes, unencodable values). The input tree is not mutated.
func Canon(n Node) Node {
	c, err := canonNode(n)
	if err != nil {
		return n
	}
	return c
}

func canonNode(n Node) (Node, error) {
	switch t := n.(type) {
	case Lit, FieldRef:
		return n, nil

	case AggRef:
		if t.Arg != nil {
			arg, err := canonNode(t.Arg)
			if err != nil {
				return nil, err
			}
			t.Arg = arg
		}
		return t, nil

	case Unary:
		x, err := canonNode(t.X)
		if err != nil {
			return nil, err
		}
		t.X = x
		return foldConst(t), nil

	case In:
		x, err := canonNode(t.X)
		if err != nil {
			return nil, err
		}
		t.X = x
		list, err := canonList(t.List)
		if err != nil {
			return nil, err
		}
		t.List = list
		return foldConst(t), nil

	case Binary:
		switch t.Op {
		case OpAnd, OpOr:
			return canonBoolChain(t)
		case OpAdd, OpMul, OpEq, OpNe:
			l, err := canonNode(t.L)
			if err != nil {
				return nil, err
			}
			r, err := canonNode(t.R)
			if err != nil {
				return nil, err
			}
			lk, err := AppendNode(nil, l)
			if err != nil {
				return nil, err
			}
			rk, err := AppendNode(nil, r)
			if err != nil {
				return nil, err
			}
			if bytes.Compare(rk, lk) < 0 {
				l, r = r, l
			}
			t.L, t.R = l, r
			return foldConst(t), nil
		default:
			l, err := canonNode(t.L)
			if err != nil {
				return nil, err
			}
			r, err := canonNode(t.R)
			if err != nil {
				return nil, err
			}
			t.L, t.R = l, r
			return foldConst(t), nil
		}

	default: // Call, nil, future nodes: not canonicalizable
		return nil, errNotCanonical
	}
}

type canonErr string

func (e canonErr) Error() string { return string(e) }

const errNotCanonical = canonErr("expr: tree cannot be canonicalized")

// canonBoolChain flattens a same-operator and/or chain, canonicalizes and
// sorts the operands, drops identities and duplicates, and rebuilds a
// left-deep chain. Annihilators collapse the whole chain to a literal.
func canonBoolChain(b Binary) (Node, error) {
	var ops []Node
	if err := flattenBool(b.Op, b.L, &ops); err != nil {
		return nil, err
	}
	if err := flattenBool(b.Op, b.R, &ops); err != nil {
		return nil, err
	}
	// For `and`: false annihilates, true is the identity. For `or`,
	// the reverse.
	annihilator := b.Op == OpOr
	kept := ops[:0]
	for _, o := range ops {
		if l, ok := o.(Lit); ok {
			if bv, isBool := l.Val.AsBool(); isBool {
				if bv == annihilator {
					return Lit{Val: event.Bool(annihilator)}, nil
				}
				continue // identity operand: drop
			}
		}
		kept = append(kept, o)
	}
	if len(kept) == 0 {
		return Lit{Val: event.Bool(!annihilator)}, nil
	}
	keys := make([][]byte, len(kept))
	for i, o := range kept {
		k, err := AppendNode(nil, o)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	order := make([]int, len(kept))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return bytes.Compare(keys[order[i]], keys[order[j]]) < 0
	})
	var chain Node
	var prev []byte
	for _, idx := range order {
		if prev != nil && bytes.Equal(prev, keys[idx]) {
			continue // idempotent: drop duplicate operands
		}
		prev = keys[idx]
		if chain == nil {
			chain = kept[idx]
		} else {
			chain = Binary{Op: b.Op, L: chain, R: kept[idx]}
		}
	}
	// A lone column or aggregate stays `x op x`: it can hold a value of
	// another kind, which the chain reads as invalid and x alone would not.
	switch chain.(type) {
	case FieldRef, AggRef:
		chain = Binary{Op: b.Op, L: chain, R: chain}
	}
	return chain, nil
}

// flattenBool appends the canonicalized leaves of a same-operator chain
// to out, recursing through nested and/or nodes of the same operator
// (including ones produced by canonicalization itself).
func flattenBool(op Op, n Node, out *[]Node) error {
	if b, ok := n.(Binary); ok && b.Op == op {
		if err := flattenBool(op, b.L, out); err != nil {
			return err
		}
		return flattenBool(op, b.R, out)
	}
	c, err := canonNode(n)
	if err != nil {
		return err
	}
	if b, ok := c.(Binary); ok && b.Op == op {
		if err := flattenBool(op, b.L, out); err != nil {
			return err
		}
		return flattenBool(op, b.R, out)
	}
	*out = append(*out, c)
	return nil
}

// canonList sorts literal in-list elements by encoding and drops exact
// duplicates. Membership is first-match, so the rewrite is unobservable.
func canonList(list []Node) ([]Node, error) {
	keys := make([][]byte, len(list))
	for i, e := range list {
		k, err := AppendNode(nil, e)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	order := make([]int, len(list))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return bytes.Compare(keys[order[i]], keys[order[j]]) < 0
	})
	out := make([]Node, 0, len(list))
	var prev []byte
	for _, idx := range order {
		if prev != nil && bytes.Equal(prev, keys[idx]) {
			continue
		}
		prev = keys[idx]
		out = append(out, list[idx])
	}
	return out, nil
}

// foldConst replaces an all-literal subtree (whose children are already
// canonical) with its value, computed by Compile's closures — the
// reference the register program is held to node for node — so the fold
// cannot drift from runtime semantics. Trees whose value is Invalid are
// kept symbolic.
func foldConst(n Node) Node {
	if !constOnly(n) {
		return n
	}
	ev, err := Compile(n)
	if err != nil {
		return n
	}
	v := ev(nil) // no FieldRef/AggRef: the row is never consulted
	if !v.IsValid() {
		return n
	}
	return Lit{Val: v}
}

func constOnly(n Node) bool {
	ok := true
	Walk(n, func(x Node) bool {
		switch x.(type) {
		case FieldRef, AggRef, Call:
			ok = false
			return false
		}
		return true
	})
	return ok
}
