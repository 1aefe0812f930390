package sqlmini

import (
	"strconv"
	"strings"

	"coherdb/internal/rel"
)

// Parser turns a token stream into statements and expressions. Grammar
// (informal):
//
//	stmt      := select | create | drop | insert | delete | update
//	select    := SELECT [DISTINCT] items FROM refs {join} [WHERE expr]
//	             [ORDER BY keys] [LIMIT n] [UNION [ALL] select]
//	expr      := or [ '?' expr ':' expr ]          (right associative)
//	or        := and {OR and}
//	and       := not {AND not}
//	not       := [NOT] cmp
//	cmp       := primary [cmpop primary | IN (...) | IS [NOT] NULL | BETWEEN]
//	primary   := literal | column | call | CASE | '(' expr ')'
type Parser struct {
	toks []Token
	pos  int
}

// NewParser builds a parser over src.
func NewParser(src string) (*Parser, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// ParseStatement parses a single SQL statement from src. A trailing
// semicolon is allowed.
func ParseStatement(src string) (Stmt, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.atEOF() {
		return nil, errAt(p.cur().Pos, "unexpected %s after statement", p.cur())
	}
	return s, nil
}

// ScriptStmt is one statement of a script.
type ScriptStmt struct {
	// Stmt is the parsed statement, nil when Err is set.
	Stmt Stmt
	// Text is the statement's source, trimmed, without its semicolon.
	Text string
	// Err is the statement's syntax error.
	Err error
	// Open marks a last statement that no semicolon ends.
	Open bool
}

// ParseScript parses a sequence of statements, each ended by a semicolon
// but the last, which may run to the end of src. The lexer decides where a
// statement ends, so a semicolon in a string literal or a comment does not
// end one. A statement that fails to parse runs to the next semicolon and
// keeps its error, and the statements after it still parse. A lexical
// error fails the whole script; it is Unterminated when a literal is still
// open at the end of src.
func ParseScript(src string) ([]ScriptStmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	atSemi := func() bool { return p.cur().Kind == TokSymbol && p.cur().Text == ";" }
	var out []ScriptStmt
	for !p.atEOF() {
		if p.accept(TokSymbol, ";") {
			continue // an empty statement
		}
		start := p.cur().Pos
		s, err := p.parseStmt()
		if err == nil && !atSemi() && !p.atEOF() {
			err = errAt(p.cur().Pos, "unexpected %s after statement", p.cur())
		}
		if err != nil {
			s = nil
			for !atSemi() && !p.atEOF() {
				p.pos++
			}
		}
		text := strings.TrimSpace(src[start:p.cur().Pos])
		out = append(out, ScriptStmt{Stmt: s, Text: text, Err: err, Open: !p.accept(TokSymbol, ";")})
	}
	return out, nil
}

// ParseExpr parses a standalone expression (the constraint language of the
// paper uses bare ternary expressions, not full statements).
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, errAt(p.cur().Pos, "unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.cur().Kind == kind && p.cur().Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) error {
	if !p.accept(kind, text) {
		return errAt(p.cur().Pos, "expected %q, got %s", text, p.cur())
	}
	return nil
}

func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *Parser) expectIdent() (string, error) {
	if p.cur().Kind == TokIdent {
		name := p.cur().Text
		p.pos++
		return name, nil
	}
	return "", errAt(p.cur().Pos, "expected identifier, got %s", p.cur())
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.cur().Kind == TokKeyword && p.cur().Text == "SELECT":
		return p.parseSelect()
	case p.acceptKeyword("EXPLAIN"):
		analyze := p.acceptKeyword("ANALYZE")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel, Analyze: analyze}, nil
	case p.acceptKeyword("CREATE"):
		return p.parseCreate()
	case p.acceptKeyword("DROP"):
		return p.parseDrop()
	case p.acceptKeyword("INSERT"):
		return p.parseInsert()
	case p.acceptKeyword("DELETE"):
		return p.parseDelete()
	case p.acceptKeyword("UPDATE"):
		return p.parseUpdate()
	default:
		return nil, errAt(p.cur().Pos, "expected a statement, got %s", p.cur())
	}
}

// parseSelect parses a SELECT and its UNION chain. A trailing ORDER BY and
// LIMIT apply to the whole chain and are kept on its first branch; a
// branch before the last cannot carry them.
func (p *Parser) parseSelect() (*SelectStmt, error) {
	s, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for b := s; p.acceptKeyword("UNION"); b = b.Union {
		b.UnionAll = p.acceptKeyword("ALL")
		if b.Union, err = p.parseSelectCore(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.cur().Kind != TokNumber {
			return nil, errAt(p.cur().Pos, "expected number after LIMIT, got %s", p.cur())
		}
		n, err := strconv.Atoi(p.cur().Text)
		if err != nil || n < 0 {
			return nil, errAt(p.cur().Pos, "bad LIMIT %q", p.cur().Text)
		}
		p.pos++
		s.Limit = n
	}
	if p.cur().Kind == TokKeyword && p.cur().Text == "UNION" {
		return nil, errAt(p.cur().Pos, "ORDER BY and LIMIT must follow the last UNION branch")
	}
	return s, nil
}

// parseSelectCore parses one SELECT branch, through HAVING.
func (p *Parser) parseSelectCore() (*SelectStmt, error) {
	if err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		for p.acceptKeyword("JOIN") {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Joins = append(s.Joins, JoinClause{Ref: ref, On: on})
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.cur().Text
		p.pos++
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if p.cur().Kind == TokIdent {
		ref.Alias = p.cur().Text
		p.pos++
	}
	return ref, nil
}

func (p *Parser) parseCreate() (Stmt, error) {
	if err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateStmt{Name: name, As: sel}, nil
	}
	if err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		// Ignore an optional type word for SQL compatibility.
		if p.cur().Kind == TokIdent {
			p.pos++
		}
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateStmt{Name: name, Cols: cols}, nil
}

func (p *Parser) parseDrop() (Stmt, error) {
	if err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	d := &DropStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expect(TokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

func (p *Parser) parseInsert() (Stmt, error) {
	if err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.accept(TokSymbol, "(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, c)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseDelete() (Stmt, error) {
	if err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *Parser) parseUpdate() (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: name}
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Cols = append(u.Cols, c)
		u.Exprs = append(u.Exprs, e)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

// parseExpr parses the top level: ternary over OR.
func (p *Parser) parseExpr() (Expr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.accept(TokSymbol, "?") {
		thenE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokSymbol, ":"); err != nil {
			return nil, err
		}
		elseE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Ternary{Cond: cond, Then: thenE, Else: elseE}, nil
	}
	return cond, nil
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "NOT", X: x}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	// Postfix predicates.
	switch {
	case p.cur().Kind == TokSymbol && isCmpOp(p.cur().Text):
		op := p.cur().Text
		p.pos++
		if op == "!=" || op == "==" {
			if op == "!=" {
				op = "<>"
			} else {
				op = "="
			}
		}
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r}, nil
	case p.acceptKeyword("IS"):
		neg := p.acceptKeyword("NOT")
		if err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return IsNull{X: l, Negate: neg}, nil
	case p.acceptKeyword("IN"):
		return p.parseInTail(l, false)
	case p.acceptKeyword("NOT"):
		switch {
		case p.acceptKeyword("IN"):
			return p.parseInTail(l, true)
		case p.acceptKeyword("BETWEEN"):
			return p.parseBetweenTail(l, true)
		default:
			return nil, errAt(p.cur().Pos, "expected IN or BETWEEN after NOT, got %s", p.cur())
		}
	case p.acceptKeyword("BETWEEN"):
		return p.parseBetweenTail(l, false)
	}
	return l, nil
}

func (p *Parser) parseInTail(l Expr, neg bool) (Expr, error) {
	if err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	var set []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, e)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return InList{X: l, Set: set, Negate: neg}, nil
}

func (p *Parser) parseBetweenTail(l Expr, neg bool) (Expr, error) {
	lo, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "AND"); err != nil {
		return nil, err
	}
	hi, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return Between{X: l, Lo: lo, Hi: hi, Negate: neg}, nil
}

func isCmpOp(s string) bool {
	switch s {
	case "=", "==", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokString:
		p.pos++
		return Lit{Val: rel.S(t.Text)}, nil
	case TokNumber:
		p.pos++
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t.Pos, "bad number %q", t.Text)
		}
		return Lit{Val: rel.I(n)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return Lit{Val: rel.Null()}, nil
		case "TRUE":
			p.pos++
			return Lit{Val: rel.B(true)}, nil
		case "FALSE":
			p.pos++
			return Lit{Val: rel.B(false)}, nil
		case "CASE":
			return p.parseCase()
		case "COUNT":
			// COUNT(*) is handled by the executor as a select item;
			// parse it as a call for uniformity.
			p.pos++
			if err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			if err := p.expect(TokSymbol, "*"); err != nil {
				return nil, err
			}
			if err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return Call{Name: "count_star"}, nil
		case "MIN", "MAX":
			// Aggregate min/max over a grouped column.
			name := "agg_min"
			if t.Text == "MAX" {
				name = "agg_max"
			}
			p.pos++
			if err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return Call{Name: name, Args: []Expr{arg}}, nil
		}
		return nil, errAt(t.Pos, "unexpected %s in expression", t)
	case TokIdent:
		p.pos++
		name := t.Text
		if p.accept(TokSymbol, "(") {
			call := Call{Name: name}
			if !p.accept(TokSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(TokSymbol, ",") {
						break
					}
				}
				if err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		if p.accept(TokSymbol, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return Col{Qualifier: name, Name: col}, nil
		}
		return Col{Name: name}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errAt(t.Pos, "unexpected %s in expression", t)
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expect(TokKeyword, "CASE"); err != nil {
		return nil, err
	}
	var c Case
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Val: val})
	}
	if len(c.Whens) == 0 {
		return nil, errAt(p.cur().Pos, "CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}
