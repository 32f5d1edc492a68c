package expr

import (
	"fmt"

	"scrub/internal/wire"
)

// Binary form of expression trees. Query objects carry compiled-down
// plans from the query server to host agents and ScrubCentral; the
// predicate and projection expressions inside them are serialized in this
// form rather than re-parsed from text, so the server's validated plan is
// exactly what executes. The form is described once, by codeNode.

const (
	tagLit uint8 = iota + 1
	tagFieldRef
	tagUnary
	tagBinary
	tagIn
	tagAggRef
)

const maxNodeDepth = 200

// AppendNode appends the binary form of an expression tree: CodeNode in
// encoding mode. Of the package only Canon keys on it, to order and
// deduplicate operands; ProgramBuilder keys a node on its instruction.
// Call nodes are rejected — plans never contain unresolved calls.
//
//scrub:allowalloc(control-plane predicate serialization; never on the per-tuple path)
func AppendNode(dst []byte, n Node) ([]byte, error) {
	c := wire.Coder{Buf: dst}
	CodeNode(&c, &n)
	if c.Err != nil {
		return nil, fmt.Errorf("expr: encode: %w", c.Err)
	}
	return c.Buf, nil
}

// CodeNode codes one expression tree in c's mode. Decoding builds the
// tree and refuses one nested deeper than maxNodeDepth.
//
//scrub:allowalloc(a tree is coded with a query's registration, never per tuple; decoding builds it node by node)
func CodeNode(c *wire.Coder, n *Node) { codeNode(c, n, 0) }

// codeNode is the tree's description: a tag byte, then the node's fields
// and children in order. Encoding reads each field from the node *n holds;
// decoding fills a zero node of the tag's type and stores it in *n.
func codeNode(c *wire.Coder, n *Node, depth int) {
	if c.Mode == wire.Decoding && depth > maxNodeDepth {
		c.Fail("expression tree too deep")
		return
	}
	tag := tagOf(*n)
	c.U8(&tag)
	if c.Err != nil {
		return
	}
	switch tag {
	case tagLit:
		t, _ := (*n).(Lit)
		c.Value(&t.Val)
		set(c, n, t)
	case tagFieldRef:
		t, _ := (*n).(FieldRef)
		c.Str(&t.Type)
		c.Str(&t.Name)
		set(c, n, t)
	case tagUnary:
		t, _ := (*n).(Unary)
		c.U8((*uint8)(&t.Op))
		codeNode(c, &t.X, depth+1)
		set(c, n, t)
	case tagBinary:
		t, _ := (*n).(Binary)
		c.U8((*uint8)(&t.Op))
		codeNode(c, &t.L, depth+1)
		codeNode(c, &t.R, depth+1)
		set(c, n, t)
	case tagIn:
		t, _ := (*n).(In)
		c.Bool(&t.Negate)
		codeNode(c, &t.X, depth+1)
		wire.Length(c, &t.List, wire.EmptyKept, "implausible in-list count")
		for i := range t.List {
			codeNode(c, &t.List[i], depth+1)
		}
		set(c, n, t)
	case tagAggRef:
		t, _ := (*n).(AggRef)
		c.Int(&t.Index)
		c.U8((*uint8)(&t.Spec.Kind))
		c.Int(&t.Spec.K)
		c.U8(&t.Spec.Prec)
		hasArg := t.Arg != nil
		c.Bool(&hasArg)
		if hasArg {
			codeNode(c, &t.Arg, depth+1)
		}
		set(c, n, t)
	default:
		if c.Mode == wire.Decoding {
			c.Failf("unknown node tag %d", tag)
		} else {
			c.Failf("unsupported node %T", *n)
		}
	}
}

// tagOf is the tag a node encodes with; 0 for a node that has none.
func tagOf(n Node) uint8 {
	switch n.(type) {
	case Lit:
		return tagLit
	case FieldRef:
		return tagFieldRef
	case Unary:
		return tagUnary
	case Binary:
		return tagBinary
	case In:
		return tagIn
	case AggRef:
		return tagAggRef
	}
	return 0
}

// set stores a decoded node in *n; the other modes leave the tree as it is.
func set[T Node](c *wire.Coder, n *Node, t T) {
	if c.Mode == wire.Decoding {
		*n = t
	}
}
