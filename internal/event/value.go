// Package event defines Scrub's event model: typed values, event schemas,
// the events themselves, a process-wide schema catalog, and a compact binary
// encoding used on the wire between host agents and ScrubCentral.
//
// An event is an n-tuple of user-defined fields plus two system fields that
// Scrub maintains itself: a unique request identifier (the only join key the
// query language permits) and an event timestamp. The metadata is bounded
// and kept to the minimum needed to support equi-joins and windowing.
package event

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive field types Scrub supports. The paper's
// int/long collapse to KindInt (int64) and float/double to KindFloat
// (float64); date/time is KindTime. Homogeneous lists of primitives are
// KindList with an element kind.
type Kind uint8

// Field kinds.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindList
)

// String returns the lower-case name used in query diagnostics and schema
// declarations.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindList:
		return "list"
	default:
		return "invalid"
	}
}

// ParseKind converts a schema declaration name to a Kind. It accepts the
// paper's type vocabulary (int, long, float, double, boolean, string,
// date, time) as aliases.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "bool", "boolean":
		return KindBool, nil
	case "int", "long", "int64":
		return KindInt, nil
	case "float", "double", "float64":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "time", "date", "datetime", "timestamp":
		return KindTime, nil
	case "list":
		return KindList, nil
	default:
		return KindInvalid, fmt.Errorf("event: unknown field type %q", s)
	}
}

// Value is a dynamically typed field value. The zero Value is the invalid
// value; it compares unequal to everything, including itself, and evaluates
// as "missing" in predicates. Values are immutable once constructed.
//
// The cell is 40 bytes: tuple batches, decode scratch and result rows are
// arrays of Values, and nearly all of them are scalars, so the list
// payload sits behind one pointer instead of widening every cell by a
// slice header and an element kind.
type Value struct {
	kind Kind
	num  uint64 // bool (0/1), int64 bits, float64 bits, or unix-nano time
	str  string
	list *listVal // non-nil exactly when kind == KindList
}

// listVal is a list value's payload.
type listVal struct {
	elem Kind
	vals []Value
}

func listOf(elem Kind, vs []Value) Value {
	return Value{kind: KindList, list: &listVal{elem: elem, vals: vs}}
}

// elems returns a list value's elements, nil for every other kind.
func (v Value) elems() []Value {
	if v.list == nil {
		return nil
	}
	return v.list.vals
}

// Invalid is the missing/invalid value.
var Invalid = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Time returns a date/time value with nanosecond resolution.
func Time(t time.Time) Value { return Value{kind: KindTime, num: uint64(t.UnixNano())} }

// TimeNanos returns a date/time value from unix nanoseconds.
func TimeNanos(ns int64) Value { return Value{kind: KindTime, num: uint64(ns)} }

// List returns a homogeneous list value. All elements must share the given
// element kind; List panics otherwise, since list construction happens at
// event-definition sites where a kind mismatch is a programming error.
func List(elem Kind, vs ...Value) Value {
	for _, v := range vs {
		if v.kind != elem {
			panic(fmt.Sprintf("event: list element kind %v does not match declared %v", v.kind, elem))
		}
	}
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return listOf(elem, cp)
}

// IntList is a convenience constructor for a list of integers.
func IntList(xs ...int64) Value {
	vs := make([]Value, len(xs))
	for i, x := range xs {
		vs[i] = Int(x)
	}
	return listOf(KindInt, vs)
}

// StrList is a convenience constructor for a list of strings.
func StrList(xs ...string) Value {
	vs := make([]Value, len(xs))
	for i, x := range xs {
		vs[i] = Str(x)
	}
	return listOf(KindString, vs)
}

// FloatList is a convenience constructor for a list of floats.
func FloatList(xs ...float64) Value {
	vs := make([]Value, len(xs))
	for i, x := range xs {
		vs[i] = Float(x)
	}
	return listOf(KindFloat, vs)
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Elem reports the element kind of a list value, KindInvalid otherwise.
func (v Value) Elem() Kind {
	if v.list == nil {
		return KindInvalid
	}
	return v.list.elem
}

// IsValid reports whether the value carries data.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsBool returns the boolean payload; ok is false on kind mismatch.
func (v Value) AsBool() (b bool, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.num != 0, true
}

// AsInt returns the integer payload; ok is false on kind mismatch.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.num), true
}

// AsFloat returns the float payload. Integers widen to float, so numeric
// expressions can mix the two kinds; ok is false for non-numeric kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.num), true
	case KindInt:
		return float64(int64(v.num)), true
	default:
		return 0, false
	}
}

// AsStr returns the string payload; ok is false on kind mismatch.
func (v Value) AsStr() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str, true
}

// AsList returns the list payload; ok is false on kind mismatch. The
// returned slice must not be mutated.
func (v Value) AsList() ([]Value, bool) {
	if v.kind != KindList {
		return nil, false
	}
	return v.elems(), true
}

// Raw returns the kind and the 64-bit scalar payload — bool as 0/1, int64
// bits, float64 bits, unix-nano time; 0 for strings, lists and the
// invalid value — reading the cell in place instead of copying it. With
// Scalar it is how expr.Program keeps values unboxed in registers.
func (v *Value) Raw() (Kind, uint64) { return v.kind, v.num }

// RawStr returns the string payload in place; "" unless the kind is
// KindString.
func (v *Value) RawStr() string { return v.str }

// Scalar rebuilds a bool, int, float or time value from its Raw form. Any
// other kind has no scalar form and yields Invalid.
func Scalar(k Kind, bits uint64) Value {
	switch k {
	case KindBool, KindInt, KindFloat, KindTime:
		return Value{kind: k, num: bits}
	}
	return Invalid
}

// IsNumeric reports whether the value is int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports deep equality. Invalid values are never equal (SQL NULL
// semantics). Int and float compare numerically, so Int(3) equals
// Float(3.0), matching the query language's comparison semantics.
func (v Value) Equal(o Value) bool {
	if v.kind == KindInvalid || o.kind == KindInvalid {
		return false
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.num == o.num
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBool, KindTime:
		return v.num == o.num
	case KindString:
		return v.str == o.str
	case KindList:
		a, b := v.elems(), o.elems()
		if v.Elem() != o.Elem() || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two values: -1, 0, or +1. The second result is false when
// the values are not comparable (kind mismatch other than int/float, lists,
// or invalid operands).
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindInvalid || o.kind == KindInvalid {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			a, b := int64(v.num), int64(o.num)
			switch {
			case a < b:
				return -1, true
			case a > b:
				return 1, true
			}
			return 0, true
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindBool:
		a, b := v.num, o.num
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	case KindTime:
		a, b := int64(v.num), int64(o.num)
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	case KindString:
		return strings.Compare(v.str, o.str), true
	}
	return 0, false
}

// Hash folds the value into a 64-bit hash suitable for group-by keys and
// COUNT_DISTINCT. Numerically equal int/float values hash identically.
// It is FNV-1a over the kind tag and payload, computed in place so that
// hashing a tuple's value (once per tuple under COUNT_DISTINCT) allocates
// nothing.
func (v Value) Hash() uint64 { return v.hashInto(fnvOffset64) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (v Value) hashInto(h uint64) uint64 {
	kind := v.kind
	num := v.num
	// Canonicalize int-valued floats to the int representation so that
	// Equal values hash equally.
	if kind == KindFloat {
		f := math.Float64frombits(num)
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			kind = KindInt
			num = uint64(int64(f))
		}
	}
	h = (h ^ uint64(kind)) * fnvPrime64
	switch kind {
	case KindBool, KindInt, KindFloat, KindTime:
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint64(byte(num>>i))) * fnvPrime64
		}
	case KindString:
		for i := 0; i < len(v.str); i++ {
			h = (h ^ uint64(v.str[i])) * fnvPrime64
		}
	case KindList:
		for _, e := range v.elems() {
			h = e.hashInto(h)
		}
	}
	return h
}

// String renders the value for result rows and diagnostics.
func (v Value) String() string {
	if v.kind == KindString {
		return v.str
	}
	var buf [40]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends exactly what String returns to dst. TOP_K keys its
// counters by this form; appending into a reused buffer lets it look an
// item up without allocating a string per tuple.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindBool:
		return strconv.AppendBool(dst, v.num != 0)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.num), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return append(dst, v.str...)
	case KindTime:
		return time.Unix(0, int64(v.num)).UTC().AppendFormat(dst, time.RFC3339Nano)
	case KindList:
		dst = append(dst, '[')
		for i, e := range v.elems() {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = e.AppendString(dst)
		}
		return append(dst, ']')
	default:
		return append(dst, "<invalid>"...)
	}
}
