package event

import (
	"fmt"
	"reflect"
	"time"
)

// Reflection binding. The paper's Java integration declares event types with
// @ScrubType / @ScrubField annotations (Figure 1). The Go equivalent is a
// struct with `scrub:"field_name"` tags:
//
//	type Bid struct {
//		ExchangeID int64   `scrub:"exchange_id"`
//		City       string  `scrub:"city"`
//		BidPrice   float64 `scrub:"bid_price"`
//	}
//	schema, _ := event.SchemaOf("bid", Bid{})
//	ev, _ := event.Marshal(schema, reqID, time.Now(), Bid{...})
//
// Fields without a scrub tag are ignored, mirroring the opt-in annotation
// model. Binding uses reflection only at schema-definition and log sites the
// developer opted into; there is no dynamic instrumentation.

var timeType = reflect.TypeOf(time.Time{})

func kindOfGoType(t reflect.Type) (Kind, Kind, error) {
	if t == timeType {
		return KindTime, KindInvalid, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return KindBool, KindInvalid, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32:
		return KindInt, KindInvalid, nil
	case reflect.Float32, reflect.Float64:
		return KindFloat, KindInvalid, nil
	case reflect.String:
		return KindString, KindInvalid, nil
	case reflect.Slice:
		ek, _, err := kindOfGoType(t.Elem())
		if err != nil {
			return KindInvalid, KindInvalid, err
		}
		if ek == KindList {
			return KindInvalid, KindInvalid, fmt.Errorf("event: nested lists are not supported")
		}
		return KindList, ek, nil
	default:
		return KindInvalid, KindInvalid, fmt.Errorf("event: unsupported Go type %s", t)
	}
}

// SchemaOf derives a Schema named typeName from the `scrub` struct tags of
// prototype, which must be a struct or pointer to struct.
func SchemaOf(typeName string, prototype any) (*Schema, error) {
	t := reflect.TypeOf(prototype)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("event: SchemaOf requires a struct, got %T", prototype)
	}
	var defs []FieldDef
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("scrub")
		if !ok || tag == "" || tag == "-" {
			continue
		}
		if !sf.IsExported() {
			return nil, fmt.Errorf("event: SchemaOf: tagged field %s.%s must be exported", t.Name(), sf.Name)
		}
		k, ek, err := kindOfGoType(sf.Type)
		if err != nil {
			return nil, fmt.Errorf("event: SchemaOf: field %s: %w", sf.Name, err)
		}
		defs = append(defs, FieldDef{Name: tag, Kind: k, Elem: ek})
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("event: SchemaOf: %s has no scrub-tagged fields", t.Name())
	}
	return NewSchema(typeName, defs...)
}

func valueOfGo(rv reflect.Value) (Value, error) {
	if rv.Type() == timeType {
		return Time(rv.Interface().(time.Time)), nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		return Bool(rv.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return Int(rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32:
		return Int(int64(rv.Uint())), nil
	case reflect.Float32, reflect.Float64:
		return Float(rv.Float()), nil
	case reflect.String:
		return Str(rv.String()), nil
	case reflect.Slice:
		ek, _, err := kindOfGoType(rv.Type().Elem())
		if err != nil {
			return Invalid, err
		}
		vs := make([]Value, rv.Len())
		for i := range vs {
			ev, err := valueOfGo(rv.Index(i))
			if err != nil {
				return Invalid, err
			}
			vs[i] = ev
		}
		return listOf(ek, vs), nil
	default:
		return Invalid, fmt.Errorf("event: unsupported Go value kind %s", rv.Kind())
	}
}

// Marshal converts a tagged struct value into an Event for the given
// schema. The struct must be the same shape SchemaOf derived the schema
// from (matched by tag name; extra untagged fields are ignored).
func Marshal(s *Schema, reqID uint64, ts time.Time, v any) (*Event, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("event: Marshal: nil pointer")
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil, fmt.Errorf("event: Marshal requires a struct, got %T", v)
	}
	values := make([]Value, s.NumFields())
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("scrub")
		if !ok || tag == "" || tag == "-" {
			continue
		}
		idx := s.FieldIndex(tag)
		if idx < 0 {
			return nil, fmt.Errorf("event: Marshal: schema %s has no field %q", s.Name(), tag)
		}
		val, err := valueOfGo(rv.Field(i))
		if err != nil {
			return nil, fmt.Errorf("event: Marshal: field %q: %w", tag, err)
		}
		def := s.Field(idx)
		if val.Kind() != def.Kind || (def.Kind == KindList && val.Elem() != def.Elem) {
			return nil, fmt.Errorf("event: Marshal: field %q: kind %s does not match schema %s", tag, val.Kind(), def.Kind)
		}
		values[idx] = val
	}
	return &Event{Schema: s, RequestID: reqID, TimeNanos: ts.UnixNano(), Values: values}, nil
}
