package ql

import (
	"strings"
	"testing"
	"time"

	"scrub/internal/expr"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex(`select x, COUNT(*) from bid where a >= 1.5 and b != 'hi' -- comment
	@[Service in BidServers] sample hosts 10% window 10s duration 1h30m`)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	if toks[len(toks)-1].Kind != tokEOF {
		t.Error("missing EOF token")
	}
	// Spot checks.
	find := func(text string) *token {
		for i := range toks {
			if toks[i].Text == text {
				return &toks[i]
			}
		}
		return nil
	}
	if tk := find(">="); tk == nil || tk.Kind != tokSymbol {
		t.Error(">= not lexed as one symbol")
	}
	if tk := find("1.5"); tk == nil || tk.Kind != tokFloat {
		t.Error("1.5 not lexed as float")
	}
	if tk := find("hi"); tk == nil || tk.Kind != tokString {
		t.Error("string not lexed")
	}
	if tk := find("10s"); tk == nil || tk.Kind != tokDuration {
		t.Error("10s not lexed as duration")
	}
	if tk := find("1h30m"); tk == nil || tk.Kind != tokDuration {
		t.Error("compound duration not lexed")
	}
	if find("comment") != nil {
		t.Error("comment leaked into tokens")
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		"select 'unterminated",
		"select 1.2.3",
		"select 1x",
		"select `backtick`",
		`select "bad \q escape"`,
		"select 1.",
		"select 10q",
	}
	for _, src := range bad {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

// TestLexDecodesUTF8 holds the lexer to reading runes, not bytes: a
// non-ASCII letter belongs to its identifier, which the analyzer then
// judges, and a stray character is reported as itself rather than as the
// rune one of its bytes happens to be.
func TestLexDecodesUTF8(t *testing.T) {
	q, err := Parse("select bid.usér from bid")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Analyze(q, testCatalog()); err == nil || !strings.Contains(err.Error(), `no field "usér"`) {
		t.Errorf("analyze: %v, want bid has no field \"usér\"", err)
	}
	if _, err := Parse("select count(*) from bid where bid.é = 1"); err != nil {
		t.Errorf("parse bid.é: %v", err)
	}
	if _, err := Parse("select © from bid"); err == nil || !strings.Contains(err.Error(), `unexpected character "©"`) {
		t.Errorf("parse stray ©: %v, want unexpected character \"©\"", err)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex(`select "a\n\t\"b\\c"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "a\n\t\"b\\c" {
		t.Errorf("escaped string = %q", toks[1].Text)
	}
	// The AST printer renders string literals with %q, so the lexer must
	// accept the full Go escape set or rendered queries fail to re-parse.
	toks, err = lex(`select "\a\b\f\r\v\xdeé\U0001F600"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\a\b\f\r\v\xdeé\U0001F600"; toks[1].Text != want {
		t.Errorf("escaped string = %q, want %q", toks[1].Text, want)
	}
	for _, bad := range []string{
		`select "\x1"`,        // truncated hex
		`select "\xzz"`,       // malformed hex
		`select "\ud800"`,     // surrogate half
		`select "\U00110000"`, // beyond MaxRune
	} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) should fail", bad)
		}
	}
}

// TestStringLiteralRoundTrip pins the fuzzer-found divergence where the
// lexer accepted a raw non-UTF-8 byte in a string literal but rejected
// the \xNN escape the printer emits for it.
func TestStringLiteralRoundTrip(t *testing.T) {
	q, err := Parse("seleCt 0 from A where'\xde'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("rendering %q did not re-parse: %v", q.String(), err)
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("select x\nfrom bid\nwhere $")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should carry line info: %v", err)
	}
}

// --- Paper query examples (Figures 9, 11, 13, 14) ---

func TestParsePaperSpamQuery(t *testing.T) {
	// Figure 9, plus an explicit window.
	q, err := Parse(`Select bid.user_id, COUNT(*)
		from bid
		@[Service in BidServers and Server = host1]
		group by bid.user_id
		window 10s`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 {
		t.Fatalf("select items = %d", len(q.Select))
	}
	if f, ok := q.Select[0].Expr.(expr.FieldRef); !ok || f.Type != "bid" || f.Name != "user_id" {
		t.Errorf("select[0] = %v", q.Select[0].Expr)
	}
	if c, ok := q.Select[1].Expr.(expr.Call); !ok || !c.Star || !strings.EqualFold(c.Name, "count") {
		t.Errorf("select[1] = %v", q.Select[1].Expr)
	}
	if len(q.From) != 1 || q.From[0] != "bid" {
		t.Errorf("from = %v", q.From)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Name != "user_id" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if q.Window != 10*time.Second {
		t.Errorf("window = %v", q.Window)
	}
	if len(q.Target.Services) != 1 || q.Target.Services[0] != "BidServers" {
		t.Errorf("target services = %v", q.Target.Services)
	}
	if len(q.Target.Servers) != 1 || q.Target.Servers[0] != "host1" {
		t.Errorf("target servers = %v", q.Target.Servers)
	}
}

func TestParsePaperSampledImpressionsQuery(t *testing.T) {
	// Figure 11 shape: impressions per exchange, 10% hosts, 10% events.
	q, err := Parse(`select impression.exchange_id, count(*)
		from impression
		group by impression.exchange_id
		@[Service in PresentationServers and DC = "DC1"]
		sample hosts 10% events 10%`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.SampleHosts != 0.1 || q.SampleEvents != 0.1 {
		t.Errorf("sampling = %g/%g", q.SampleHosts, q.SampleEvents)
	}
	if q.Target.DC != "DC1" {
		t.Errorf("DC = %q", q.Target.DC)
	}
}

func TestParsePaperCPMQuery(t *testing.T) {
	// Figure 13: 1000*AVG(impression.cost) with a server list.
	q, err := Parse(`Select 1000*AVG(impression.cost)
		from impression
		where impression.line_item_id = 7
		@[Servers in (host1, host2, host3)]`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	mul, ok := q.Select[0].Expr.(expr.Binary)
	if !ok || mul.Op != expr.OpMul {
		t.Fatalf("select[0] = %v", q.Select[0].Expr)
	}
	if _, ok := mul.R.(expr.Call); !ok {
		t.Errorf("rhs should be AVG call, got %T", mul.R)
	}
	if len(q.Target.Servers) != 3 {
		t.Errorf("servers = %v", q.Target.Servers)
	}
	if q.Where == nil {
		t.Error("where missing")
	}
}

func TestParseJoinQuery(t *testing.T) {
	q, err := Parse(`select bid.exchange_id, exclusion.reason, count(*)
		from bid, exclusion
		where bid.exchange_id = 5
		group by bid.exchange_id, exclusion.reason`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From) != 2 {
		t.Errorf("join not detected: %v", q.From)
	}
}

func TestParseSpanClauses(t *testing.T) {
	q, err := Parse(`select count(*) from bid start +30s duration 20m`)
	if err != nil {
		t.Fatal(err)
	}
	if q.StartIn != 30*time.Second || q.Span != 20*time.Minute {
		t.Errorf("span = %v + %v", q.StartIn, q.Span)
	}
	q, err = Parse(`select count(*) from bid start "2026-07-05T10:00:00Z" duration 60`)
	if err != nil {
		t.Fatal(err)
	}
	if q.StartAt.IsZero() || q.Span != 60*time.Second {
		t.Errorf("absolute start = %v span %v", q.StartAt, q.Span)
	}
	q, err = Parse(`select count(*) from bid start now`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.StartAt.IsZero() || q.StartIn != 0 {
		t.Error("start now should leave both zero")
	}
}

func TestParseReplay(t *testing.T) {
	q, err := Parse(`select count(*) from bid duration 20m replay 30s`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Replay != 30*time.Second {
		t.Errorf("Replay = %v, want 30s", q.Replay)
	}
	// Bare integers are seconds, like DURATION.
	q, err = Parse(`select count(*) from bid replay 45`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Replay != 45*time.Second {
		t.Errorf("Replay = %v, want 45s", q.Replay)
	}
}

func TestParseTargetVariants(t *testing.T) {
	cases := map[string]TargetSpec{
		`@[all]`:                         {All: true},
		`@[Service = AdServers]`:         {Services: []string{"AdServers"}},
		`@[Service in (A, B)]`:           {Services: []string{"A", "B"}},
		`@[Server = "h-1.sj.turn.com"]`:  {Servers: []string{"h-1.sj.turn.com"}},
		`@[hosts in (h1, h2)]`:           {Servers: []string{"h1", "h2"}},
		`@[DC = DC1]`:                    {DC: "DC1"},
		`@[Service in X and dc = "DC2"]`: {Services: []string{"X"}, DC: "DC2"},
	}
	for src, want := range cases {
		q, err := Parse("select count(*) from bid " + src)
		if err != nil {
			t.Errorf("Parse(%s): %v", src, err)
			continue
		}
		got := q.Target
		if got.All != want.All || got.DC != want.DC ||
			strings.Join(got.Services, ",") != strings.Join(want.Services, ",") ||
			strings.Join(got.Servers, ",") != strings.Join(want.Servers, ",") {
			t.Errorf("%s → %+v, want %+v", src, got, want)
		}
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	q, err := Parse(`select 1 + 2 * 3 from bid`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Select[0].Expr.String(); got != "(1 + (2 * 3))" {
		t.Errorf("precedence = %s", got)
	}
	q, err = Parse(`select (1 + 2) * 3 from bid`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Select[0].Expr.String(); got != "((1 + 2) * 3)" {
		t.Errorf("parens = %s", got)
	}
	q, err = Parse(`select a from bid where x = 1 or y = 2 and z = 3`)
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter than OR.
	if got := q.Where.String(); got != "((x = 1) or ((y = 2) and (z = 3)))" {
		t.Errorf("bool precedence = %s", got)
	}
}

func TestParseNegativeNumbersFold(t *testing.T) {
	q, err := Parse(`select a from bid where x = -5 and y = -1.5`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Where.String(); got != "((x = -5) and (y = -1.5))" {
		t.Errorf("negatives = %s", got)
	}
}

func TestParseInLike(t *testing.T) {
	q, err := Parse(`select a from bid where city in ('sf', 'la') and name like 'bot%' and note contains 'x' and id not in (1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.String()
	for _, want := range []string{`(city in ("sf", "la"))`, `(name like "bot%")`, `(note contains "x")`, `(id not in (1, 2))`} {
		if !strings.Contains(s, want) {
			t.Errorf("where %s missing %s", s, want)
		}
	}
}

func TestParseAliases(t *testing.T) {
	q, err := Parse(`select count(*) as n, user_id as u from bid group by user_id`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Label() != "n" || q.Select[1].Label() != "u" {
		t.Errorf("aliases = %q, %q", q.Select[0].Label(), q.Select[1].Label())
	}
	// Unaliased label falls back to expression text.
	q, _ = Parse(`select count(*) from bid`)
	if q.Select[0].Label() == "" {
		t.Error("fallback label empty")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse(`select count(*) from bid;`); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
	if _, err := Parse(`select count(*) from bid; extra`); err == nil {
		t.Error("trailing garbage after ; should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`from bid`,
		`select`,
		`select from bid`,
		`select x`,
		`select x from`,
		`select x from 123`,
		`select x from bid where`,
		`select x from bid group x`,
		`select x from bid group by`,
		`select x from bid window`,
		`select x from bid window fast`,
		`select x from bid start yesterday`,
		`select x from bid start "not-a-time"`,
		`select x from bid duration`,
		`select x from bid where a in ()`,
		`select x from bid where a in (1,)`,
		`select x from bid @[Frobnicators in (x)]`,
		`select x from bid @[Service ~ x]`,
		`select x from bid @[Service in (a]`,
		`select x from bid @[]`,
		`select x from bid @ Service`,
		`select x from bid sample`,
		`select x from bid sample hosts`,
		`select x from bid sample hosts 0%`,
		`select x from bid sample hosts 101%`,
		`select x from bid sample hosts 10`,
		`select x from bid sample hosts 10% hosts 20%`,
		`select x from bid where (a = 1`,
		`select x from bid where a = 1 where b = 2`,
		`select x from bid group by a group by b`,
		`select x from bid window 10s window 20s`,
		`select x from bid duration 5m duration 6m`,
		`select x from bid replay`,
		`select x from bid replay 30s replay 1m`,
		`select x from bid start +1s start +2s`,
		`select x from bid @[all] @[all]`,
		`select count( from bid`,
		`select x as from bid`,
		`select x from bid nonsense`,
		`select x from bid where f(`,
		`select x.y.z from bid`,
		`select x from bid @[DC = DC1 and DC = DC2]`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	// Canonical String() output must re-parse to an equivalent query.
	srcs := []string{
		`select bid.user_id, count(*) from bid group by bid.user_id window 10s duration 20m @[Service in BidServers] sample hosts 10% events 25%`,
		`select 1000 * avg(impression.cost) from impression where impression.line_item_id = 7`,
		`select a, b from bid, exclusion where bid.x = 1 and exclusion.y = "z"`,
		`select count(*) from bid start +5s`,
		`select count(*) from bid duration 10m replay 30s`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("canonical text not fixed-point:\n  %s\n  %s", q1.String(), q2.String())
		}
	}
}

func TestParseSlide(t *testing.T) {
	q, err := Parse(`select count(*) from bid window 10s slide 5s`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Window != 10*time.Second || q.Slide != 5*time.Second {
		t.Errorf("window/slide = %v/%v", q.Window, q.Slide)
	}
	if _, err := Parse(`select count(*) from bid window 10s slide`); err == nil {
		t.Error("slide without duration should fail")
	}
	// Canonical text round-trips.
	q2, err := Parse(q.String())
	if err != nil || q2.Slide != q.Slide {
		t.Errorf("round trip: %v, %v", q2, err)
	}
}

func TestParseHavingOrderLimit(t *testing.T) {
	q, err := Parse(`select bid.user_id, count(*) as n from bid group by bid.user_id having count(*) > 5 order by n desc limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Having == nil || !strings.Contains(q.Having.String(), "count(*) > 5") {
		t.Errorf("having = %v", q.Having)
	}
	if len(q.OrderByRaw) != 1 || q.OrderByRaw[0].Label != "n" || !q.OrderByRaw[0].Desc {
		t.Errorf("order by = %+v", q.OrderByRaw)
	}
	if q.Limit != 3 {
		t.Errorf("limit = %d", q.Limit)
	}
	// Canonical text round-trips.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.Limit != 3 || len(q2.OrderByRaw) != 1 || q2.Having == nil {
		t.Error("round trip lost clauses")
	}
	bad := []string{
		`select count(*) from bid limit 0`,
		`select count(*) from bid limit x`,
		`select count(*) from bid order by`,
		`select count(*) from bid order by -1`,
		`select count(*) from bid having`,
		`select count(*) from bid limit 1 limit 2`,
		`select count(*) from bid order by 1 order by 1`,
		`select count(*) from bid having 1=1 having 1=1`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseBudget(t *testing.T) {
	q, err := Parse(`select count(*) from bid budget cpu 2% bytes 65536`)
	if err != nil {
		t.Fatal(err)
	}
	if q.BudgetCPUPct != 0.02 || q.BudgetBytesPerSec != 65536 {
		t.Errorf("budget = %g/%g", q.BudgetCPUPct, q.BudgetBytesPerSec)
	}
	if !q.Budgeted() {
		t.Error("Budgeted() false")
	}
	// Single-dimension forms.
	q, err = Parse(`select count(*) from bid budget bytes 1024.5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.BudgetCPUPct != 0 || q.BudgetBytesPerSec != 1024.5 {
		t.Errorf("bytes-only budget = %g/%g", q.BudgetCPUPct, q.BudgetBytesPerSec)
	}
	q, err = Parse(`select count(*) from bid budget cpu 0.5%`)
	if err != nil {
		t.Fatal(err)
	}
	if q.BudgetCPUPct != 0.005 {
		t.Errorf("cpu-only budget = %g", q.BudgetCPUPct)
	}
	// Composes with the other optional clauses in any order.
	q, err = Parse(`select count(*) from bid budget bytes 100 sample events 10% window 5s`)
	if err != nil {
		t.Fatal(err)
	}
	if q.BudgetBytesPerSec != 100 || q.SampleEvents != 0.1 {
		t.Errorf("budget+sample = %g/%g", q.BudgetBytesPerSec, q.SampleEvents)
	}
	// Canonical text round-trips.
	q, err = Parse(`select count(*) from bid sample events 50% budget cpu 2% bytes 4096`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.BudgetCPUPct != q.BudgetCPUPct || q2.BudgetBytesPerSec != q.BudgetBytesPerSec {
		t.Errorf("round trip lost budget: %q", q.String())
	}
	bad := []string{
		`select count(*) from bid budget`,
		`select count(*) from bid budget cpu`,
		`select count(*) from bid budget cpu 2`,
		`select count(*) from bid budget cpu 0%`,
		`select count(*) from bid budget cpu 101%`,
		`select count(*) from bid budget bytes`,
		`select count(*) from bid budget bytes 0`,
		`select count(*) from bid budget bytes -5`,
		`select count(*) from bid budget bytes x`,
		`select count(*) from bid budget cpu 1% cpu 2%`,
		`select count(*) from bid budget bytes 1 bytes 2`,
		`select count(*) from bid budget cpu 1% budget bytes 2`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
