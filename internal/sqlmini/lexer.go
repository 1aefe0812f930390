package sqlmini

import (
	"fmt"
	"strings"
)

// SyntaxError reports a lexing or parsing failure with its byte offset.
type SyntaxError struct {
	Pos          int
	Msg          string
	unterminated bool
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sqlmini: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// Unterminated reports whether the error is a literal still open at the
// end of the source, which more text could close.
func (e *SyntaxError) Unterminated() bool { return e.unterminated }

func errAt(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenizes a SQL string. Comments ("-- ..." to end of line) are
// skipped. Strings use single quotes with ” as the escape. Double-quoted
// identifiers are supported for names with punctuation (e.g. "Busy-sd"
// column values appear as strings, but "Request_remmsg" style names are
// plain identifiers).
func Lex(src string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{Pos: start, Msg: "unterminated string literal", unterminated: true}
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case c == '"':
			// The paper writes value literals in double quotes
			// (dirst = "Busy-d"); treat them as string literals.
			start := i
			i++
			j := strings.IndexByte(src[i:], '"')
			if j < 0 {
				return nil, &SyntaxError{Pos: start, Msg: "unterminated quoted literal", unterminated: true}
			}
			toks = append(toks, Token{Kind: TokString, Text: src[i : i+j], Pos: start})
			i += j + 1
		case isDigit(c) || (c == '-' && i+1 < n && isDigit(src[i+1]) && startsValue(toks)):
			start := i
			if c == '-' {
				i++
			}
			for i < n && isDigit(src[i]) {
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:i], Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			sym, width := lexSymbol(src[i:])
			if width == 0 {
				return nil, errAt(start, "unexpected character %q", string(c))
			}
			i += width
			toks = append(toks, Token{Kind: TokSymbol, Text: sym, Pos: start})
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

// startsValue reports whether a '-' at the current point begins a negative
// number rather than a binary minus: true at the start of input or after a
// symbol or keyword (e.g. after '(', ',', '=', IN).
func startsValue(toks []Token) bool {
	if len(toks) == 0 {
		return true
	}
	last := toks[len(toks)-1]
	switch last.Kind {
	case TokSymbol:
		return last.Text != ")" // after ')' a '-' would be binary
	case TokKeyword:
		return true
	default:
		return false
	}
}

func lexSymbol(s string) (string, int) {
	two := []string{"!=", "<>", "<=", ">=", "=="}
	for _, t := range two {
		if strings.HasPrefix(s, t) {
			return t, 2
		}
	}
	switch s[0] {
	case '(', ')', ',', '.', '=', '<', '>', '*', '?', ':', ';', '+', '-':
		return s[:1], 1
	}
	return "", 0
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || isLetter(c) }
func isIdentPart(c byte) bool  { return c == '_' || c == '-' || isLetter(c) || isDigit(c) }
func isLetter(c byte) bool     { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
