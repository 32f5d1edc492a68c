package event

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Event is one occurrence of an event type: the user-defined field values
// in schema order, plus the two system fields. Events are created by the
// application through a Builder (or directly for internal use) and are
// treated as immutable once logged.
type Event struct {
	Schema    *Schema
	RequestID uint64
	TimeNanos int64 // event time, unix nanoseconds
	Values    []Value
}

// Get returns the value of a field by name. System fields resolve to
// synthesized values; unknown fields return Invalid.
func (e *Event) Get(name string) Value {
	switch name {
	case FieldRequestID:
		return Int(int64(e.RequestID))
	case FieldTimestamp:
		return TimeNanos(e.TimeNanos)
	}
	i := e.Schema.FieldIndex(name)
	if i < 0 || i >= len(e.Values) {
		return Invalid
	}
	return e.Values[i]
}

// At returns the i'th user field value, Invalid when out of range.
func (e *Event) At(i int) Value {
	if i < 0 || i >= len(e.Values) {
		return Invalid
	}
	return e.Values[i]
}

// String renders the event for diagnostics.
func (e *Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s{req=%d ts=%s", e.Schema.Name(), e.RequestID,
		time.Unix(0, e.TimeNanos).UTC().Format(time.RFC3339Nano))
	for i := 0; i < e.Schema.NumFields(); i++ {
		fmt.Fprintf(&sb, " %s=%s", e.Schema.Field(i).Name, e.At(i))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Builder assembles an event for a schema. It validates field names and
// kinds at Set time so that event-producing code fails fast during
// development rather than shipping malformed tuples.
type Builder struct {
	schema *Schema
	reqID  uint64
	tsNano int64
	values []Value
	err    error
}

// NewBuilder starts building an event of the given type. The event time
// defaults to the wall clock at Build time if SetTime is never called.
func NewBuilder(s *Schema) *Builder {
	return &Builder{schema: s, values: make([]Value, s.NumFields())}
}

// SetRequestID sets the request identifier system field.
func (b *Builder) SetRequestID(id uint64) *Builder {
	b.reqID = id
	return b
}

// SetTime sets the event time.
func (b *Builder) SetTime(t time.Time) *Builder {
	b.tsNano = t.UnixNano()
	return b
}

// SetTimeNanos sets the event time from unix nanoseconds.
func (b *Builder) SetTimeNanos(ns int64) *Builder {
	b.tsNano = ns
	return b
}

// Set assigns a field by name, recording an error on unknown names or kind
// mismatches. The first error wins and is reported by Build.
func (b *Builder) Set(name string, v Value) *Builder {
	if b.err != nil {
		return b
	}
	i := b.schema.FieldIndex(name)
	if i < 0 {
		b.err = fmt.Errorf("event: %s has no field %q", b.schema.Name(), name)
		return b
	}
	def := b.schema.Field(i)
	if v.Kind() != def.Kind || (def.Kind == KindList && v.Elem() != def.Elem) {
		b.err = fmt.Errorf("event: %s.%s expects %s, got %s", b.schema.Name(), name, def.Kind, v.Kind())
		return b
	}
	b.values[i] = v
	return b
}

// Bool, Int, Float, Str, Time are typed conveniences over Set.
func (b *Builder) Bool(name string, v bool) *Builder      { return b.Set(name, Bool(v)) }
func (b *Builder) Int(name string, v int64) *Builder      { return b.Set(name, Int(v)) }
func (b *Builder) Float(name string, v float64) *Builder  { return b.Set(name, Float(v)) }
func (b *Builder) Str(name string, v string) *Builder     { return b.Set(name, Str(v)) }
func (b *Builder) Time(name string, v time.Time) *Builder { return b.Set(name, Time(v)) }

// Build finalizes the event. Unset fields remain Invalid (missing), which
// predicates treat as NULL-like.
func (b *Builder) Build() (*Event, error) {
	if b.err != nil {
		return nil, b.err
	}
	ts := b.tsNano
	if ts == 0 {
		ts = time.Now().UnixNano()
	}
	return &Event{Schema: b.schema, RequestID: b.reqID, TimeNanos: ts, Values: b.values}, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Event {
	e, err := b.Build()
	if err != nil {
		panic(err)
	}
	return e
}

// RequestIDGenerator hands out process-unique request identifiers. The high
// bits carry a node id so identifiers are unique across a cluster without
// coordination — the property the equi-join relies on.
// next is the atomic.Uint64 wrapper rather than a bare uint64 +
// sync/atomic calls: the wrapper makes a mixed plain/atomic access a
// compile error instead of a latent race (scripts/ci.sh rejects
// function-style sync/atomic calls in the tree).
type RequestIDGenerator struct {
	next atomic.Uint64
	node uint64
}

// NewRequestIDGenerator creates a generator for a node. Only the low 16
// bits of node are used.
func NewRequestIDGenerator(node uint16) *RequestIDGenerator {
	return &RequestIDGenerator{node: uint64(node) << 48}
}

// Next returns the next identifier. Safe for concurrent use.
func (g *RequestIDGenerator) Next() uint64 {
	return g.node | (g.next.Add(1) & ((1 << 48) - 1))
}
