package expr

import (
	"reflect"
	"testing"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/wire"
)

// decodeTree decodes the tree at the head of b through CodeNode,
// returning the bytes it took.
func decodeTree(b []byte) (Node, int, error) {
	c := wire.Coder{Mode: wire.Decoding, Buf: b}
	var n Node
	CodeNode(&c, &n)
	return n, c.Pos, c.Err
}

func TestNodeEncodeRoundTrip(t *testing.T) {
	nodes := []Node{
		Lit{event.Int(42)},
		Lit{event.Str("hello")},
		FieldRef{Type: "bid", Name: "user_id"},
		FieldRef{Name: "city"},
		Unary{Op: OpNot, X: FieldRef{Name: "won"}},
		Unary{Op: OpNeg, X: Lit{event.Float(1.5)}},
		Binary{Op: OpAnd,
			L: Binary{Op: OpGt, L: FieldRef{Name: "bid_price"}, R: Lit{event.Float(1)}},
			R: Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: Lit{event.Str("san%")}},
		},
		In{X: FieldRef{Name: "user_id"}, List: []Node{Lit{event.Int(1)}, Lit{event.Int(2)}}, Negate: true},
		AggRef{Index: 3, Spec: agg.Spec{Kind: agg.KindTopK, K: 10}, Arg: FieldRef{Name: "user_id"}},
		AggRef{Index: 0, Spec: agg.Spec{Kind: agg.KindCountStar}},
		Binary{Op: OpMul, L: Lit{event.Int(1000)}, R: AggRef{Index: 1, Spec: agg.Spec{Kind: agg.KindAvg}, Arg: FieldRef{Type: "impression", Name: "cost"}}},
	}
	for _, n := range nodes {
		buf, err := AppendNode(nil, n)
		if err != nil {
			t.Fatalf("AppendNode(%s): %v", n, err)
		}
		got, used, err := decodeTree(buf)
		if err != nil {
			t.Fatalf("decodeTree(%s): %v", n, err)
		}
		if used != len(buf) {
			t.Errorf("%s: consumed %d of %d", n, used, len(buf))
		}
		if !reflect.DeepEqual(got, n) {
			t.Errorf("round trip %s -> %s", n, got)
		}
	}
}

func TestNodeEncodeErrors(t *testing.T) {
	if _, err := AppendNode(nil, nil); err == nil {
		t.Error("nil node should fail")
	}
	if _, err := AppendNode(nil, Call{Name: "COUNT"}); err == nil {
		t.Error("Call should fail to encode")
	}
	if _, err := AppendNode(nil, Binary{Op: OpAnd, L: Call{Name: "x"}, R: Lit{event.Int(1)}}); err == nil {
		t.Error("nested Call should fail")
	}
}

func TestNodeDecodeErrors(t *testing.T) {
	good, err := AppendNode(nil, Binary{Op: OpAdd, L: Lit{event.Int(1)}, R: Lit{event.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		if _, _, err := decodeTree(good[:i]); err == nil {
			t.Errorf("truncated decode at %d should fail", i)
		}
	}
	if _, _, err := decodeTree([]byte{99}); err == nil {
		t.Error("unknown tag should fail")
	}
	// An index or a top_k K that does not fit an int is malformed.
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 2^63
	for _, b := range [][]byte{
		append(append([]byte{tagAggRef}, huge...), byte(agg.KindCountStar), 0, 0, 0),
		append(append([]byte{tagAggRef, 0, byte(agg.KindTopK)}, huge...), 0, 0),
	} {
		if n, _, err := decodeTree(b); err == nil {
			t.Errorf("%x decodes, as %#v", b, n)
		}
	}
	// Depth bomb: deeply nested unary ops must be rejected, not overflow.
	deep := make([]byte, 0, 3000)
	for i := 0; i < 1000; i++ {
		deep = append(deep, tagUnary, byte(OpNot))
	}
	deep = append(deep, tagLit)
	deep = event.AppendValue(deep, event.Bool(true))
	if _, _, err := decodeTree(deep); err == nil {
		t.Error("over-deep tree should be rejected")
	}
}

func TestEncodedDecodedTreeStillCompiles(t *testing.T) {
	n := Binary{Op: OpAnd,
		L: Binary{Op: OpGe, L: FieldRef{Type: "bid", Name: "bid_price"}, R: Lit{event.Float(1)}},
		R: In{X: FieldRef{Type: "bid", Name: "user_id"}, List: []Node{Lit{event.Int(42)}}},
	}
	buf, err := AppendNode(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeTree(buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(got)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.NewBuilder(bidSchema).
		Int("user_id", 42).Float("bid_price", 1.5).SetTimeNanos(1).MustBuild()
	if v, _ := e(EventRow{Event: ev}).AsBool(); !v {
		t.Error("decoded predicate should pass")
	}
}
