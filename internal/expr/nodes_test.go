package expr

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"scrub/internal/agg"
	"scrub/internal/event"
)

var update = flag.Bool("update", false, "rewrite testdata/nodes.golden from sampleNodes")

const nodesGolden = "testdata/nodes.golden"

// sampleNodes is one tree per node kind, by name: a Lit of each value
// kind, a FieldRef with and without its type, Unary, Binary, IN, NOT IN,
// and an AggRef with and without an argument.
func sampleNodes() []struct {
	name string
	n    Node
} {
	return []struct {
		name string
		n    Node
	}{
		{"lit-invalid", Lit{event.Invalid}},
		{"lit-bool", Lit{event.Bool(true)}},
		{"lit-int", Lit{event.Int(-42)}},
		{"lit-float", Lit{event.Float(1.5)}},
		{"lit-string", Lit{event.Str("san%")}},
		{"lit-time", Lit{event.TimeNanos(1_500_000_000_000_000_000)}},
		{"lit-list", Lit{event.IntList(1, 2, 3)}},
		{"field-typed", FieldRef{Type: "bid", Name: "user_id"}},
		{"field-untyped", FieldRef{Name: "city"}},
		{"unary", Unary{Op: OpNot, X: FieldRef{Name: "won"}}},
		{"binary", Binary{Op: OpGt, L: FieldRef{Type: "bid", Name: "bid_price"}, R: Lit{event.Float(9)}}},
		{"in", In{X: FieldRef{Name: "user_id"}, List: []Node{Lit{event.Int(1)}, Lit{event.Int(2)}}}},
		{"not-in", In{X: FieldRef{Name: "city"}, List: []Node{Lit{event.Str("sj")}}, Negate: true}},
		{"aggref-arg", AggRef{Index: 3, Spec: agg.Spec{Kind: agg.KindTopK, K: 10}, Arg: FieldRef{Type: "bid", Name: "user_id"}}},
		{"aggref-star", AggRef{Index: 0, Spec: agg.Spec{Kind: agg.KindCountStar}}},
		{"aggref-prec", AggRef{Index: 200, Spec: agg.Spec{Kind: agg.KindCountDistinct, Prec: 12}, Arg: FieldRef{Name: "city"}}},
	}
}

// TestNodesGolden pins the expression tree's bytes: what a HostQuery's
// predicate travels as, and the key Canon orders and deduplicates
// operands by. Every line is a sample tree's name and its encoding in hex;
// the bytes must also decode back to the tree. -update rewrites the file,
// and a moved line needs a protocol reason.
func TestNodesGolden(t *testing.T) {
	var got []string
	for _, s := range sampleNodes() {
		enc, err := AppendNode(nil, s.n)
		if err != nil {
			t.Fatalf("AppendNode(%s): %v", s.name, err)
		}
		back, used, err := decodeTree(enc)
		if err != nil || used != len(enc) || !reflect.DeepEqual(back, s.n) {
			t.Errorf("%s: decodes to %#v (%d of %d bytes, %v)", s.name, back, used, len(enc), err)
		}
		got = append(got, fmt.Sprintf("%s %x", s.name, enc))
	}
	if *update {
		if err := os.WriteFile(nodesGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(nodesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d sample trees, %s has %d", len(got), nodesGolden, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tree %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}
