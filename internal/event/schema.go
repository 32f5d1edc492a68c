package event

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// System field names. Every event carries these in addition to its
// user-defined fields; they are the only metadata Scrub attaches, kept to
// the minimum required for equi-joins (request_id) and windowing (ts).
const (
	FieldRequestID = "request_id"
	FieldTimestamp = "ts"
)

// IsSystemField reports whether name is one of Scrub's system fields.
func IsSystemField(name string) bool {
	return name == FieldRequestID || name == FieldTimestamp
}

// FieldDef declares one user-defined field of an event type.
type FieldDef struct {
	Name string
	Kind Kind
	Elem Kind // element kind when Kind == KindList
}

func (f FieldDef) String() string {
	if f.Kind == KindList {
		return fmt.Sprintf("%s list<%s>", f.Name, f.Elem)
	}
	return fmt.Sprintf("%s %s", f.Name, f.Kind)
}

// Schema is an immutable event-type definition: a type label plus an
// ordered list of field definitions. Construct with NewSchema; the zero
// value is unusable.
type Schema struct {
	name   string
	fields []FieldDef
	index  map[string]int
}

// NewSchema builds a schema. Field names must be non-empty, unique, and
// must not collide with the system fields.
func NewSchema(name string, fields ...FieldDef) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("event: empty schema name")
	}
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("event: schema %q: field %d has empty name", name, i)
		}
		if IsSystemField(f.Name) {
			return nil, fmt.Errorf("event: schema %q: field %q collides with a system field", name, f.Name)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("event: schema %q: duplicate field %q", name, f.Name)
		}
		if f.Kind == KindInvalid || (f.Kind == KindList && (f.Elem == KindInvalid || f.Elem == KindList)) {
			return nil, fmt.Errorf("event: schema %q: field %q has invalid kind", name, f.Name)
		}
		idx[f.Name] = i
	}
	cp := make([]FieldDef, len(fields))
	copy(cp, fields)
	return &Schema{name: name, fields: cp, index: idx}, nil
}

// MustSchema is NewSchema that panics on error, for compile-time-constant
// schema declarations.
func MustSchema(name string, fields ...FieldDef) *Schema {
	s, err := NewSchema(name, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the event-type label.
func (s *Schema) Name() string { return s.name }

// NumFields returns the number of user-defined fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i'th field definition.
func (s *Schema) Field(i int) FieldDef { return s.fields[i] }

// FieldIndex returns the position of the named user field, or -1.
func (s *Schema) FieldIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// FieldKind returns the kind of the named field. System fields resolve to
// their fixed kinds (request_id: int, ts: time). The second result is false
// for unknown fields.
func (s *Schema) FieldKind(name string) (Kind, bool) {
	switch name {
	case FieldRequestID:
		return KindInt, true
	case FieldTimestamp:
		return KindTime, true
	}
	i, ok := s.index[name]
	if !ok {
		return KindInvalid, false
	}
	return s.fields[i].Kind, true
}

// String renders the schema declaration.
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = f.String()
	}
	return fmt.Sprintf("%s(%s)", s.name, strings.Join(parts, ", "))
}

// Catalog is a thread-safe registry of event schemas — the set of event
// types the application has defined. The query server validates queries
// against a catalog, and host agents use it to decode projections.
type Catalog struct {
	mu      sync.RWMutex
	schemas map[string]*Schema
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{schemas: make(map[string]*Schema)}
}

// Register adds a schema. Re-registering the same *Schema pointer is a
// no-op; registering a different schema under an existing name is an error
// (event types are append-only in a running system).
func (c *Catalog) Register(s *Schema) error {
	if s == nil {
		return fmt.Errorf("event: nil schema")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.schemas[s.name]; ok {
		if prev == s || prev.String() == s.String() {
			return nil
		}
		return fmt.Errorf("event: schema %q already registered with a different definition", s.name)
	}
	c.schemas[s.name] = s
	return nil
}

// MustRegister is Register that panics on error.
func (c *Catalog) MustRegister(s *Schema) {
	if err := c.Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the schema for an event-type name.
func (c *Catalog) Lookup(name string) (*Schema, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.schemas[name]
	return s, ok
}

// Names returns the registered event-type names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered schemas.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.schemas)
}
