// Package ql implements the Scrub query language: lexer, recursive-descent
// parser, semantic validation against the event catalog, and planning —
// splitting a validated query into the host-side part (selection,
// projection, sampling) and the central part (join, group-by, aggregation),
// per the paper's execution model (§4).
package ql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokDuration
	tokSymbol // punctuation and operators, Text holds the spelling
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokDuration:
		return "duration"
	case tokSymbol:
		return "symbol"
	default:
		return "?"
	}
}

type token struct {
	Kind tokKind
	Text string
	Pos  int // byte offset into the query text
}

func (t token) String() string {
	if t.Kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.Text)
}

// isKeyword reports whether an identifier token equals the keyword,
// case-insensitively.
func (t token) isKeyword(kw string) bool {
	return t.Kind == tokIdent && strings.EqualFold(t.Text, kw)
}

func (t token) isSymbol(s string) bool {
	return t.Kind == tokSymbol && t.Text == s
}

// SyntaxError reports a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos   int
	Query string
	Msg   string
}

func (e *SyntaxError) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.Query); i++ {
		if e.Query[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("ql: syntax error at line %d col %d: %s", line, col, e.Msg)
}

// lex tokenizes query text. Durations like `10s`, `5m`, `1h30m`, `250ms`
// lex as a single duration token; identifiers may not start with a digit.
func lex(src string) ([]token, error) {
	// Queries as troubleshooters write them run about four bytes a token
	// (`bid.user_id >= 16 and ` is six in 22); denser text grows the slice.
	toks := make([]token, 0, len(src)/4+4)
	i := 0
	errf := func(pos int, format string, args ...any) error {
		return &SyntaxError{Pos: pos, Query: src, Msg: fmt.Sprintf(format, args...)}
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++

		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			// SQL-style line comment.
			for i < len(src) && src[i] != '\n' {
				i++
			}

		case c >= '0' && c <= '9':
			start := i
			sawDot := false
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				if src[i] == '.' {
					if sawDot {
						return nil, errf(i, "malformed number")
					}
					// A dot not followed by a digit terminates the number
					// (e.g. `1.x` is invalid anyway, but `bid.f` never
					// starts with a digit so this is just strictness).
					if i+1 >= len(src) || src[i+1] < '0' || src[i+1] > '9' {
						return nil, errf(i, "malformed number")
					}
					sawDot = true
				}
				i++
			}
			// Duration suffix: ns, us, ms, s, m, h immediately following.
			sufStart := i
			for i < len(src) && (src[i] >= 'a' && src[i] <= 'z') {
				i++
			}
			if i > sufStart {
				unit := src[sufStart:i]
				switch unit {
				case "ns", "us", "ms", "s", "m", "h":
					// Allow compound durations like 1h30m: keep consuming
					// digit+unit pairs. A later part may carry a fraction
					// (1m10.000001s is how a Duration renders itself); a
					// malformed one is left to time.ParseDuration.
					for i < len(src) && src[i] >= '0' && src[i] <= '9' {
						j := i
						for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
							j++
						}
						k := j
						for k < len(src) && src[k] >= 'a' && src[k] <= 'z' {
							k++
						}
						switch src[j:k] {
						case "ns", "us", "ms", "s", "m", "h":
							i = k
						default:
							return nil, errf(j, "malformed duration")
						}
					}
					toks = append(toks, token{Kind: tokDuration, Text: src[start:i], Pos: start})
					continue
				default:
					return nil, errf(sufStart, "unexpected characters %q after number", unit)
				}
			}
			kind := tokInt
			if sawDot {
				kind = tokFloat
			}
			toks = append(toks, token{Kind: kind, Text: src[start:i], Pos: start})

		case c == '\'' || c == '"':
			quote := c
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\\' && i+1 < len(src) {
					// Full Go escape set: the AST printer renders string
					// literals with %q, which can emit any of these, and
					// every parsed query must re-parse from its rendering.
					switch e := src[i+1]; e {
					case 'a':
						sb.WriteByte('\a')
					case 'b':
						sb.WriteByte('\b')
					case 'f':
						sb.WriteByte('\f')
					case 'n':
						sb.WriteByte('\n')
					case 'r':
						sb.WriteByte('\r')
					case 't':
						sb.WriteByte('\t')
					case 'v':
						sb.WriteByte('\v')
					case '\\', '\'', '"':
						sb.WriteByte(e)
					case 'x', 'u', 'U':
						digits := map[byte]int{'x': 2, 'u': 4, 'U': 8}[e]
						if i+2+digits > len(src) {
							return nil, errf(i, "truncated escape \\%c", e)
						}
						v, err := strconv.ParseUint(src[i+2:i+2+digits], 16, 32)
						if err != nil {
							return nil, errf(i, "malformed escape \\%c", e)
						}
						if e == 'x' {
							sb.WriteByte(byte(v))
						} else {
							if v > unicode.MaxRune || (v >= 0xD800 && v <= 0xDFFF) {
								return nil, errf(i, "escape \\%c is not a valid rune", e)
							}
							sb.WriteRune(rune(v))
						}
						i += 2 + digits
						continue
					default:
						return nil, errf(i, "unknown escape \\%c", e)
					}
					i += 2
					continue
				}
				if src[i] == quote {
					closed = true
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, errf(start, "unterminated string")
			}
			toks = append(toks, token{Kind: tokString, Text: sb.String(), Pos: start})

		default:
			if n := identLen(src[i:]); n > 0 {
				toks = append(toks, token{Kind: tokIdent, Text: src[i : i+n], Pos: i})
				i += n
				continue
			}
			start := i
			// Two-character symbols first.
			if i+1 < len(src) {
				two := src[i : i+2]
				switch two {
				case "!=", "<>", "<=", ">=":
					toks = append(toks, token{Kind: tokSymbol, Text: two, Pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case ',', '(', ')', '@', '[', ']', '.', ';', '=', '<', '>', '+', '-', '*', '/', '%':
				toks = append(toks, token{Kind: tokSymbol, Text: src[i : i+1], Pos: start})
				i++
			default:
				r, _ := utf8.DecodeRuneInString(src[i:])
				return nil, errf(i, "unexpected character %q", string(r))
			}
		}
	}
	toks = append(toks, token{Kind: tokEOF, Pos: len(src)})
	return toks, nil
}

// identLen is the byte length of the identifier s begins with, 0 when it
// begins with none: a letter or underscore, then letters, digits and
// underscores, all decoded from UTF-8.
func identLen(s string) int {
	n := 0
	for n < len(s) {
		r, size := rune(s[n]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[n:])
		}
		letter := r == '_' || 'a' <= r|0x20 && r|0x20 <= 'z' || r >= utf8.RuneSelf && unicode.IsLetter(r)
		digit := '0' <= r && r <= '9' || r >= utf8.RuneSelf && unicode.IsDigit(r)
		if !letter && (n == 0 || !digit) {
			break
		}
		n += size
	}
	return n
}
