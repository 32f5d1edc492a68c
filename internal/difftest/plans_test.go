package difftest

import (
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scrub/internal/expr"
	"scrub/internal/ql"
)

const plansGolden = "testdata/plans.golden"

// TestPlansGolden holds ql.Analyze's output to testdata/plans.golden for
// every query genQuery draws on the seeds plain `go test` runs (the query
// under test and the decoys of differential 0–95, default-lateness 0–63
// and the regression seeds) and every FuzzParse seed that parses. An
// entry is the plan's Explain text and the binary encoding of each host
// predicate, the central predicate and each select expression, so a
// change to the planner that keeps the rendering but moves a tree's shape
// fails too; an analysis error is pinned by its message. -update rewrites
// the file.
func TestPlansGolden(t *testing.T) {
	var texts []string
	add := func(cfg Config) {
		g, err := generate(cfg)
		if err != nil {
			t.Fatalf("[%s] %v", cfg, err)
		}
		texts = append(texts, g.src)
		for _, d := range drawDecoys(cfg.Seed) {
			texts = append(texts, d.src)
		}
	}
	for seed := int64(0); seed < 96; seed++ {
		add(deriveConfig(seed))
	}
	for seed := int64(0); seed < 64; seed++ {
		add(deriveDefaultConfig(seed))
	}
	for _, seed := range regressionSeeds {
		add(deriveConfig(seed))
	}
	slices.Sort(texts)
	texts = slices.Compact(texts)
	seeds, err := os.ReadFile("../ql/testdata/parse_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(seeds), "\n"), "\n") {
		src, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("parse_seeds.txt: %q: %v", line, err)
		}
		if _, err := ql.Parse(src); err == nil {
			texts = append(texts, src)
		}
	}

	var sb strings.Builder
	for _, src := range texts {
		planEntry(&sb, src)
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(plansGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatalf("%v (go test ./internal/difftest -run TestPlansGolden -update writes it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n\n"), strings.Split(string(want), "\n\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s: entry %d moved:\n--- got\n%s\n--- want\n%s", plansGolden, i, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d entries, want %d", plansGolden, len(g), len(w))
}

// planEntry appends src's entry to sb, ending in a blank line.
func planEntry(sb *strings.Builder, src string) {
	fmt.Fprintf(sb, "query %q\n", src)
	q, err := ql.Parse(src)
	if err != nil {
		fmt.Fprintf(sb, "error: %v\n\n", err)
		return
	}
	p, err := ql.Analyze(q, catalog())
	if err != nil {
		fmt.Fprintf(sb, "error: %v\n\n", err)
		return
	}
	sb.WriteString(ql.Explain(p))
	tree := func(label string, n expr.Node) {
		if n == nil {
			fmt.Fprintf(sb, "%s: -\n", label)
			return
		}
		b, err := expr.AppendNode(nil, n)
		if err != nil {
			fmt.Fprintf(sb, "%s: error: %v\n", label, err)
			return
		}
		fmt.Fprintf(sb, "%s: %s\n", label, hex.EncodeToString(b))
	}
	for _, typ := range p.TypeNames() {
		tree("host "+typ, p.HostPred[typ])
	}
	tree("central", p.CentralPred)
	for i, item := range p.Select {
		tree(fmt.Sprintf("select %d", i), item.Expr)
	}
	sb.WriteString("\n")
}
