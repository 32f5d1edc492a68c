package ql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
)

// Parse turns query text into a Query. Grammar (keywords case-insensitive;
// the optional clauses after FROM may appear in any order):
//
//	query  := SELECT items FROM types [WHERE pred] [GROUP BY fields]
//	          [HAVING pred] [ORDER BY (label|ordinal) [DESC|ASC], ...]
//	          [LIMIT n] [WINDOW dur [SLIDE dur]]
//	          [START (+dur | string | NOW)] [DURATION dur] [REPLAY dur]
//	          [@[ target ]] [SAMPLE [HOSTS n%] [EVENTS n%]]
//	          [BUDGET [CPU n%] [BYTES n]] [;]
//	target := ALL | clause (AND clause)*
//	clause := SERVICE (= name | IN (names)) | SERVER[S] (= name | IN (names))
//	        | DC = name
//
// Expressions use SQL-ish operators: and/or/not, = != <> < <= > >=, + - * /
// %, [not] in (...), like 'pat%', contains 'sub'. Aggregates COUNT(*),
// COUNT(e), SUM, AVG, MIN, MAX, TOP_K(e, k), COUNT_DISTINCT(e) appear in
// the select list only. Validation happens separately (Analyze).
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	q.Raw = src
	return q, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) errf(t token, format string, args ...any) error {
	return &SyntaxError{Pos: t.Pos, Query: p.src, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectKeyword(kw string) error {
	if !p.cur().isKeyword(kw) {
		return p.errf(p.cur(), "expected %s, got %s", strings.ToUpper(kw), p.cur())
	}
	p.pos++
	return nil
}

func (p *parser) expectSymbol(s string) error {
	if !p.cur().isSymbol(s) {
		return p.errf(p.cur(), "expected %q, got %s", s, p.cur())
	}
	p.pos++
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if p.cur().isSymbol(",") {
			p.pos++
			continue
		}
		break
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != tokIdent {
			return nil, p.errf(t, "expected event type name, got %s", t)
		}
		q.From = append(q.From, t.Text)
		p.pos++
		if p.cur().isSymbol(",") {
			p.pos++
			continue
		}
		break
	}

	// Optional clauses, in any order after FROM.
	for {
		t := p.cur()
		switch {
		case t.isKeyword("where"):
			if q.Where != nil {
				return nil, p.errf(t, "duplicate WHERE")
			}
			p.pos++
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.Where = w

		case t.isKeyword("group"):
			if len(q.GroupBy) > 0 {
				return nil, p.errf(t, "duplicate GROUP BY")
			}
			p.pos++
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
			for {
				f, err := p.parseFieldRef()
				if err != nil {
					return nil, err
				}
				q.GroupBy = append(q.GroupBy, f)
				if p.cur().isSymbol(",") {
					p.pos++
					continue
				}
				break
			}

		case t.isKeyword("having"):
			if q.Having != nil {
				return nil, p.errf(t, "duplicate HAVING")
			}
			p.pos++
			h, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.Having = h

		case t.isKeyword("order"):
			if len(q.OrderByRaw) > 0 {
				return nil, p.errf(t, "duplicate ORDER BY")
			}
			p.pos++
			if err := p.expectKeyword("by"); err != nil {
				return nil, err
			}
			for {
				var key RawOrderKey
				switch cur := p.cur(); {
				case cur.Kind == tokInt:
					n, err := strconv.Atoi(cur.Text)
					if err != nil || n < 1 {
						return nil, p.errf(cur, "ORDER BY ordinal must be a positive integer")
					}
					key.Ordinal = n
					p.pos++
				case cur.Kind == tokIdent:
					key.Label = cur.Text
					p.pos++
				default:
					return nil, p.errf(cur, "ORDER BY expects a column label or 1-based ordinal")
				}
				switch {
				case p.cur().isKeyword("desc"):
					key.Desc = true
					p.pos++
				case p.cur().isKeyword("asc"):
					p.pos++
				}
				q.OrderByRaw = append(q.OrderByRaw, key)
				if p.cur().isSymbol(",") {
					p.pos++
					continue
				}
				break
			}

		case t.isKeyword("limit"):
			if q.Limit != 0 {
				return nil, p.errf(t, "duplicate LIMIT")
			}
			p.pos++
			cur := p.cur()
			if cur.Kind != tokInt {
				return nil, p.errf(cur, "LIMIT expects a positive integer")
			}
			n, err := strconv.Atoi(cur.Text)
			if err != nil || n < 1 {
				return nil, p.errf(cur, "LIMIT expects a positive integer")
			}
			q.Limit = n
			p.pos++

		case t.isKeyword("window"):
			if q.Window != 0 {
				return nil, p.errf(t, "duplicate WINDOW")
			}
			p.pos++
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			q.Window = d
			if p.cur().isKeyword("slide") {
				p.pos++
				sd, err := p.parseDuration()
				if err != nil {
					return nil, err
				}
				q.Slide = sd
			}

		case t.isKeyword("start"):
			if !q.StartAt.IsZero() || q.StartIn != 0 {
				return nil, p.errf(t, "duplicate START")
			}
			p.pos++
			switch cur := p.cur(); {
			case cur.isSymbol("+"):
				p.pos++
				d, err := p.parseDuration()
				if err != nil {
					return nil, err
				}
				q.StartIn = d
			case cur.Kind == tokString:
				at, err := time.Parse(time.RFC3339, cur.Text)
				if err != nil {
					return nil, p.errf(cur, "bad START time %q: use RFC3339", cur.Text)
				}
				q.StartAt = at
				p.pos++
			case cur.isKeyword("now"):
				p.pos++
			default:
				return nil, p.errf(cur, "START expects +duration, an RFC3339 string, or NOW")
			}

		case t.isKeyword("duration"):
			if q.Span != 0 {
				return nil, p.errf(t, "duplicate DURATION")
			}
			p.pos++
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			q.Span = d

		case t.isKeyword("replay"):
			if q.Replay != 0 {
				return nil, p.errf(t, "duplicate REPLAY")
			}
			p.pos++
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			q.Replay = d

		case t.isSymbol("@"):
			if !q.Target.IsZero() {
				return nil, p.errf(t, "duplicate target spec")
			}
			p.pos++
			spec, err := p.parseTarget()
			if err != nil {
				return nil, err
			}
			q.Target = spec

		case t.isKeyword("sample"):
			if q.SampleHosts != 0 || q.SampleEvents != 0 {
				return nil, p.errf(t, "duplicate SAMPLE")
			}
			p.pos++
			if err := p.parseSample(q); err != nil {
				return nil, err
			}

		case t.isKeyword("budget"):
			if q.Budgeted() {
				return nil, p.errf(t, "duplicate BUDGET")
			}
			p.pos++
			if err := p.parseBudget(q); err != nil {
				return nil, err
			}

		case t.isSymbol(";"):
			p.pos++
			if p.cur().Kind != tokEOF {
				return nil, p.errf(p.cur(), "unexpected input after ';'")
			}
			return q, nil

		case t.Kind == tokEOF:
			return q, nil

		default:
			return nil, p.errf(t, "unexpected %s", t)
		}
	}
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.cur().isKeyword("as") {
		p.pos++
		t := p.cur()
		if t.Kind != tokIdent {
			return SelectItem{}, p.errf(t, "expected alias after AS, got %s", t)
		}
		item.Alias = t.Text
		p.pos++
	}
	return item, nil
}

func (p *parser) parseFieldRef() (expr.FieldRef, error) {
	t := p.cur()
	if t.Kind != tokIdent {
		return expr.FieldRef{}, p.errf(t, "expected field name, got %s", t)
	}
	p.pos++
	if p.cur().isSymbol(".") {
		p.pos++
		f := p.cur()
		if f.Kind != tokIdent {
			return expr.FieldRef{}, p.errf(f, "expected field name after '.', got %s", f)
		}
		p.pos++
		return expr.FieldRef{Type: t.Text, Name: f.Text}, nil
	}
	return expr.FieldRef{Name: t.Text}, nil
}

func (p *parser) parseDuration() (time.Duration, error) {
	t := p.cur()
	switch t.Kind {
	case tokDuration:
		d, err := time.ParseDuration(t.Text)
		if err != nil {
			return 0, p.errf(t, "bad duration %q", t.Text)
		}
		p.pos++
		return d, nil
	case tokInt:
		// Bare integer means seconds.
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n > math.MaxInt64/int64(time.Second) {
			return 0, p.errf(t, "bad duration %q", t.Text)
		}
		p.pos++
		return time.Duration(n) * time.Second, nil
	default:
		return 0, p.errf(t, "expected a duration (like 10s, 5m), got %s", t)
	}
}

// parseTarget parses the bracketed target spec after '@'.
func (p *parser) parseTarget() (TargetSpec, error) {
	var spec TargetSpec
	if err := p.expectSymbol("["); err != nil {
		return spec, err
	}
	if p.cur().isKeyword("all") {
		p.pos++
		spec.All = true
		if err := p.expectSymbol("]"); err != nil {
			return spec, err
		}
		return spec, nil
	}
	for {
		t := p.cur()
		if t.Kind != tokIdent {
			return spec, p.errf(t, "expected target clause (Service/Server/DC), got %s", t)
		}
		key := strings.ToLower(t.Text)
		p.pos++
		switch key {
		case "service", "services":
			names, err := p.parseNameSet()
			if err != nil {
				return spec, err
			}
			spec.Services = append(spec.Services, names...)
		case "server", "servers", "host", "hosts":
			names, err := p.parseNameSet()
			if err != nil {
				return spec, err
			}
			spec.Servers = append(spec.Servers, names...)
		case "dc", "datacenter":
			if err := p.expectSymbol("="); err != nil {
				return spec, err
			}
			name, err := p.parseName()
			if err != nil {
				return spec, err
			}
			if spec.DC != "" {
				return spec, p.errf(t, "duplicate DC clause")
			}
			spec.DC = name
		default:
			return spec, p.errf(t, "unknown target clause %q (want Service, Server, or DC)", t.Text)
		}
		if p.cur().isKeyword("and") {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectSymbol("]"); err != nil {
		return spec, err
	}
	return spec, nil
}

// parseNameSet parses `= name` or `in (name, name, ...)` or `in name`
// (the paper writes `Service in BidServers` without parens).
func (p *parser) parseNameSet() ([]string, error) {
	t := p.cur()
	switch {
	case t.isSymbol("="):
		p.pos++
		n, err := p.parseName()
		if err != nil {
			return nil, err
		}
		return []string{n}, nil
	case t.isKeyword("in"):
		p.pos++
		if p.cur().isSymbol("(") {
			p.pos++
			var names []string
			for {
				n, err := p.parseName()
				if err != nil {
					return nil, err
				}
				names = append(names, n)
				if p.cur().isSymbol(",") {
					p.pos++
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return names, nil
		}
		n, err := p.parseName()
		if err != nil {
			return nil, err
		}
		return []string{n}, nil
	default:
		return nil, p.errf(t, "expected '=' or IN in target clause, got %s", t)
	}
}

func (p *parser) parseName() (string, error) {
	t := p.cur()
	if t.Kind != tokIdent && t.Kind != tokString {
		return "", p.errf(t, "expected a name, got %s", t)
	}
	p.pos++
	return t.Text, nil
}

// parseSample parses `SAMPLE [HOSTS n%] [EVENTS n%]`; at least one clause
// is required.
func (p *parser) parseSample(q *Query) error {
	parsed := false
	for {
		t := p.cur()
		var dst *float64
		switch {
		case t.isKeyword("hosts"):
			dst = &q.SampleHosts
		case t.isKeyword("events"):
			dst = &q.SampleEvents
		default:
			if !parsed {
				return p.errf(t, "SAMPLE expects HOSTS or EVENTS")
			}
			return nil
		}
		if *dst != 0 {
			return p.errf(t, "duplicate SAMPLE %s", strings.ToUpper(t.Text))
		}
		p.pos++
		rate, err := p.parsePercent()
		if err != nil {
			return err
		}
		*dst = rate
		parsed = true
	}
}

// parseBudget parses `BUDGET [CPU n%] [BYTES n]`; at least one clause is
// required. CPU is a share of one core; BYTES is shipped bytes per second.
func (p *parser) parseBudget(q *Query) error {
	parsed := false
	for {
		t := p.cur()
		switch {
		case t.isKeyword("cpu"):
			if q.BudgetCPUPct != 0 {
				return p.errf(t, "duplicate BUDGET CPU")
			}
			p.pos++
			pct, err := p.parsePercent()
			if err != nil {
				return err
			}
			q.BudgetCPUPct = pct
		case t.isKeyword("bytes"):
			if q.BudgetBytesPerSec != 0 {
				return p.errf(t, "duplicate BUDGET BYTES")
			}
			p.pos++
			n := p.cur()
			if n.Kind != tokInt && n.Kind != tokFloat {
				return p.errf(n, "BUDGET BYTES expects a positive number (bytes per second), got %s", n)
			}
			v, err := strconv.ParseFloat(n.Text, 64)
			if err != nil || v <= 0 {
				return p.errf(n, "BUDGET BYTES expects a positive number, got %q", n.Text)
			}
			p.pos++
			q.BudgetBytesPerSec = v
		default:
			if !parsed {
				return p.errf(t, "BUDGET expects CPU or BYTES")
			}
			return nil
		}
		parsed = true
	}
}

func (p *parser) parsePercent() (float64, error) {
	t := p.cur()
	if t.Kind != tokInt && t.Kind != tokFloat {
		return 0, p.errf(t, "expected a percentage, got %s", t)
	}
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, p.errf(t, "bad percentage %q", t.Text)
	}
	p.pos++
	if err := p.expectSymbol("%"); err != nil {
		return 0, err
	}
	if v <= 0 || v > 100 {
		return 0, p.errf(t, "percentage must be in (0, 100], got %g", v)
	}
	return v / 100, nil
}

// --- Expression parsing (precedence climbing) ---

func (p *parser) parseExpr() (expr.Node, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().isKeyword("or") {
		p.pos++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().isKeyword("and") {
		p.pos++
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Node, error) {
	if p.cur().isKeyword("not") {
		p.pos++
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.Unary{Op: expr.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "!=": expr.OpNe, "<>": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseComparison() (expr.Node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == tokSymbol {
		if op, ok := cmpOps[t.Text]; ok {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.Binary{Op: op, L: l, R: r}, nil
		}
	}
	if t.isKeyword("like") || t.isKeyword("contains") {
		op := expr.OpLike
		if t.isKeyword("contains") {
			op = expr.OpContains
		}
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.Binary{Op: op, L: l, R: r}, nil
	}
	negate := false
	if t.isKeyword("not") && p.toks[p.pos+1].isKeyword("in") {
		negate = true
		p.pos++
		t = p.cur()
	}
	if t.isKeyword("in") {
		p.pos++
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []expr.Node
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.cur().isSymbol(",") {
				p.pos++
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return expr.In{X: l, List: list, Negate: negate}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr.Node, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op expr.Op
		switch {
		case t.isSymbol("+"):
			op = expr.OpAdd
		case t.isSymbol("-"):
			op = expr.OpSub
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (expr.Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op expr.Op
		switch {
		case t.isSymbol("*"):
			op = expr.OpMul
		case t.isSymbol("/"):
			op = expr.OpDiv
		case t.isSymbol("%"):
			op = expr.OpMod
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (expr.Node, error) {
	if p.cur().isSymbol("-") {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals.
		if l, ok := x.(expr.Lit); ok {
			if i, ok := l.Val.AsInt(); ok {
				return expr.Lit{Val: event.Int(-i)}, nil
			}
			if f, ok := l.Val.AsFloat(); ok {
				return expr.Lit{Val: event.Float(-f)}, nil
			}
		}
		return expr.Unary{Op: expr.OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Node, error) {
	t := p.cur()
	switch {
	case t.Kind == tokInt:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad integer %q", t.Text)
		}
		p.pos++
		return expr.Lit{Val: event.Int(n)}, nil

	case t.Kind == tokFloat:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.Text)
		}
		p.pos++
		return expr.Lit{Val: event.Float(f)}, nil

	case t.Kind == tokString:
		p.pos++
		return expr.Lit{Val: event.Str(t.Text)}, nil

	case t.isSymbol("("):
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.Kind == tokIdent:
		switch {
		case t.isKeyword("true"):
			p.pos++
			return expr.Lit{Val: event.Bool(true)}, nil
		case t.isKeyword("false"):
			p.pos++
			return expr.Lit{Val: event.Bool(false)}, nil
		}
		// Function call?
		if p.toks[p.pos+1].isSymbol("(") {
			name := t.Text
			p.pos += 2
			call := expr.Call{Name: name}
			if p.cur().isSymbol("*") {
				p.pos++
				call.Star = true
			} else if !p.cur().isSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.cur().isSymbol(",") {
						p.pos++
						continue
					}
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return p.parseFieldRef()

	default:
		return nil, p.errf(t, "unexpected %s in expression", t)
	}
}
