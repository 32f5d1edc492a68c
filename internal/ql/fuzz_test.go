package ql

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse drives the full lex→parse pipeline with arbitrary query
// text. Beyond not panicking, it checks the printer/parser round-trip:
// any query that parses must re-parse from its own String() rendering,
// and the rendering must be a fixed point (String of the re-parse is
// byte-identical) — the property Explain and the query server's echo
// path rely on. Its seeds are testdata/parse_seeds.txt, one Go-quoted
// query a line, which internal/difftest's plans golden pins the plans of.
func FuzzParse(f *testing.F) {
	seeds, err := os.ReadFile("testdata/parse_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(seeds), "\n"), "\n") {
		s, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("testdata/parse_seeds.txt: %q: %v", line, err)
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejected input: only the absence of panics is asserted
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round-trip: %q parsed but its rendering %q did not: %v", src, rendered, err)
		}
		if again := q2.String(); again != rendered {
			t.Fatalf("rendering not a fixed point:\n first: %q\nsecond: %q", rendered, again)
		}
	})
}
