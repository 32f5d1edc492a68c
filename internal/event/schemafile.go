package event

import (
	"fmt"
	"os"
	"strings"
)

// Schema files declare event types for standalone deployments (the
// cmd/scrubcentral and cmd/scrubd daemons), one type per line:
//
//	# Turn bidding platform events
//	bid exchange_id:int user_id:int city:string bid_price:float
//	auction line_item_ids:list<int> winner_bid_price:float
//
// Field types use the query language's vocabulary (bool, int/long,
// float/double, string, time/date, list<elem>). Blank lines and lines
// starting with '#' are ignored.

// ParseSchemas parses schema-file text into schemas, in declaration
// order.
func ParseSchemas(text string) ([]*Schema, error) {
	var out []*Schema
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		defs := make([]FieldDef, 0, len(fields)-1)
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 || colon == len(f)-1 {
				return nil, fmt.Errorf("event: schema file line %d: field %q must be name:type", lineNo+1, f)
			}
			fname, ftype := f[:colon], f[colon+1:]
			def := FieldDef{Name: fname}
			if strings.HasPrefix(ftype, "list<") && strings.HasSuffix(ftype, ">") {
				elem, err := ParseKind(ftype[5 : len(ftype)-1])
				if err != nil {
					return nil, fmt.Errorf("event: schema file line %d: %w", lineNo+1, err)
				}
				def.Kind = KindList
				def.Elem = elem
			} else {
				kind, err := ParseKind(ftype)
				if err != nil {
					return nil, fmt.Errorf("event: schema file line %d: %w", lineNo+1, err)
				}
				if kind == KindList {
					return nil, fmt.Errorf("event: schema file line %d: list fields need an element type, e.g. list<int>", lineNo+1)
				}
				def.Kind = kind
			}
			defs = append(defs, def)
		}
		s, err := NewSchema(name, defs...)
		if err != nil {
			return nil, fmt.Errorf("event: schema file line %d: %w", lineNo+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// LoadSchemaFile parses the schema file at path and registers every type
// it declares into cat, beside any cat already holds: the daemons load
// -schema into the catalog -adplatform may have filled.
func LoadSchemaFile(cat *Catalog, path string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("event: %w", err)
	}
	schemas, err := ParseSchemas(string(text))
	if err != nil {
		return err
	}
	for _, s := range schemas {
		if err := cat.Register(s); err != nil {
			return err
		}
	}
	return nil
}
