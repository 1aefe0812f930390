package sqlmini

import (
	"errors"
	"strings"
	"testing"
)

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestParsePaperColumnConstraint(t *testing.T) {
	// Verbatim from §3 of the paper.
	e := mustExpr(t, `inmsg = "data" and dirst = "Busy-d" ? dirpv = zero : dirpv = one`)
	tern, ok := e.(Ternary)
	if !ok {
		t.Fatalf("expr = %T, want Ternary", e)
	}
	cond, ok := tern.Cond.(Binary)
	if !ok || cond.Op != "AND" {
		t.Fatalf("cond = %#v", tern.Cond)
	}
	// zero is a bare symbol (resolved to a value later by ResolveSymbols).
	if got := tern.Then.String(); got != "(dirpv = zero)" {
		t.Fatalf("then = %q", got)
	}
}

func TestParseRemmsgConstraint(t *testing.T) {
	// Also verbatim: bare identifiers serve as symbolic values.
	e := mustExpr(t, `inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL`)
	tern := e.(Ternary)
	eq, ok := tern.Else.(Binary)
	if !ok || eq.Op != "=" {
		t.Fatalf("else = %#v", tern.Else)
	}
	if lit, ok := eq.R.(Lit); !ok || !lit.Val.IsNull() {
		t.Fatalf("else RHS = %#v, want NULL literal", eq.R)
	}
}

func TestParseNestedTernary(t *testing.T) {
	e := mustExpr(t, `a = 1 ? x = 1 : a = 2 ? x = 2 : x = 3`)
	outer := e.(Ternary)
	if _, ok := outer.Else.(Ternary); !ok {
		t.Fatalf("ternary not right-associative: %s", e)
	}
}

func TestParsePrecedenceOrAnd(t *testing.T) {
	e := mustExpr(t, `a = 1 or b = 2 and c = 3`)
	b := e.(Binary)
	if b.Op != "OR" {
		t.Fatalf("top op = %s, want OR (AND binds tighter)", b.Op)
	}
	if r := b.R.(Binary); r.Op != "AND" {
		t.Fatalf("right op = %s", r.Op)
	}
}

func TestParseNotBindsTighterThanAnd(t *testing.T) {
	e := mustExpr(t, `not a = 1 and b = 2`)
	b := e.(Binary)
	if b.Op != "AND" {
		t.Fatalf("top = %s", b.Op)
	}
	if _, ok := b.L.(Unary); !ok {
		t.Fatalf("left = %#v, want NOT node", b.L)
	}
}

func TestParseInAndNotIn(t *testing.T) {
	e := mustExpr(t, `inmsg in ('readex', 'read', 'wb')`)
	in := e.(InList)
	if len(in.Set) != 3 || in.Negate {
		t.Fatalf("in = %#v", in)
	}
	e = mustExpr(t, `inmsg not in ('retry')`)
	if in := e.(InList); !in.Negate {
		t.Fatal("NOT IN lost negation")
	}
}

func TestParseIsNull(t *testing.T) {
	if e := mustExpr(t, `remmsg is null`).(IsNull); e.Negate {
		t.Fatal("IS NULL parsed as negated")
	}
	if e := mustExpr(t, `remmsg is not null`).(IsNull); !e.Negate {
		t.Fatal("IS NOT NULL lost negation")
	}
}

func TestParseBetween(t *testing.T) {
	e := mustExpr(t, `n between 1 and 5`).(Between)
	if e.Negate {
		t.Fatal("negated")
	}
	e2 := mustExpr(t, `n not between 1 and 5`).(Between)
	if !e2.Negate {
		t.Fatal("NOT BETWEEN lost negation")
	}
}

func TestParseCase(t *testing.T) {
	e := mustExpr(t, `case when a = 1 then 'x' when a = 2 then 'y' else 'z' end`).(Case)
	if len(e.Whens) != 2 || e.Else == nil {
		t.Fatalf("case = %#v", e)
	}
	if _, err := ParseExpr(`case else 1 end`); err == nil {
		t.Fatal("CASE without WHEN must fail")
	}
}

func TestParseCall(t *testing.T) {
	e := mustExpr(t, `isrequest(inmsg)`).(Call)
	if e.Name != "isrequest" || len(e.Args) != 1 {
		t.Fatalf("call = %#v", e)
	}
	z := mustExpr(t, `nullary()`).(Call)
	if len(z.Args) != 0 {
		t.Fatalf("nullary args = %d", len(z.Args))
	}
}

func TestParseQualifiedColumn(t *testing.T) {
	e := mustExpr(t, `ED.inmsg = 'wb'`).(Binary)
	c := e.L.(Col)
	if c.Qualifier != "ED" || c.Name != "inmsg" {
		t.Fatalf("col = %#v", c)
	}
}

func TestParseSelectFull(t *testing.T) {
	s, err := ParseStatement(`SELECT DISTINCT d.inmsg, v.vc AS chan FROM D d JOIN V v ON d.inmsg = v.m WHERE d.dirst <> 'I' ORDER BY chan DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*SelectStmt)
	if !sel.Distinct || len(sel.Items) != 2 || len(sel.From) != 1 || len(sel.Joins) != 1 {
		t.Fatalf("select = %+v", sel)
	}
	if sel.Items[1].Alias != "chan" {
		t.Fatalf("alias = %q", sel.Items[1].Alias)
	}
	if sel.From[0].Alias != "d" || sel.Joins[0].Ref.Alias != "v" {
		t.Fatal("aliases lost")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc || sel.Limit != 10 {
		t.Fatalf("orderby/limit = %+v %d", sel.OrderBy, sel.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	s, err := ParseStatement(`SELECT * FROM D`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.(*SelectStmt).Items[0].Star {
		t.Fatal("star not parsed")
	}
}

func TestParseUnion(t *testing.T) {
	s, err := ParseStatement(`SELECT a FROM t1 UNION ALL SELECT a FROM t2 UNION SELECT a FROM t3`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*SelectStmt)
	if sel.Union == nil || !sel.UnionAll {
		t.Fatal("first UNION ALL missing")
	}
	if sel.Union.Union == nil || sel.Union.UnionAll {
		t.Fatal("second UNION missing or wrongly ALL")
	}
}

func TestParseCreateVariants(t *testing.T) {
	s, err := ParseStatement(`CREATE TABLE V (m, s, d, v)`)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.(*CreateStmt); len(c.Cols) != 4 || c.As != nil {
		t.Fatalf("create = %+v", c)
	}
	// The paper's §5 statement verbatim (modulo the nested-projection
	// shorthand ED.Inputs, which our dialect spells as column lists).
	s, err = ParseStatement(`Create Table Request_remmsg as Select distinct inmsg, remmsg from ED Where isrequest(inmsg)`)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.(*CreateStmt); c.As == nil || c.Name != "Request_remmsg" {
		t.Fatalf("create-as = %+v", c)
	}
	// Typed columns are tolerated and ignored.
	s, err = ParseStatement(`CREATE TABLE t (a int, b text)`)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.(*CreateStmt); len(c.Cols) != 2 {
		t.Fatalf("typed create = %+v", c)
	}
}

func TestParseDrop(t *testing.T) {
	s, err := ParseStatement(`DROP TABLE IF EXISTS old`)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.(*DropStmt); !d.IfExists || d.Name != "old" {
		t.Fatalf("drop = %+v", d)
	}
}

func TestParseInsert(t *testing.T) {
	s, err := ParseStatement(`INSERT INTO V (m, s, d, v) VALUES ('readex', 'local', 'home', 'VC0'), ('sinv', 'home', 'remote', 'VC1')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Cols) != 4 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseDeleteAndUpdate(t *testing.T) {
	s, err := ParseStatement(`DELETE FROM V WHERE v = 'VC4'`)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.(*DeleteStmt); d.Where == nil {
		t.Fatalf("delete = %+v", d)
	}
	s, err = ParseStatement(`UPDATE V SET v = 'VC2', d = 'home' WHERE m = 'idone'`)
	if err != nil {
		t.Fatal(err)
	}
	if u := s.(*UpdateStmt); len(u.Cols) != 2 || u.Where == nil {
		t.Fatalf("update = %+v", u)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`CREATE TABLE t (a); INSERT INTO t VALUES ('x'); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	for _, s := range stmts {
		if s.Stmt == nil || s.Err != nil || s.Open {
			t.Fatalf("statement %+v", s)
		}
	}

	// The lexer decides where a statement ends: a semicolon in a string
	// or a comment does not end one, a failing statement runs to the next
	// semicolon, and the last may be open.
	stmts, err = ParseScript("SELECT ';' FROM t; -- a; note\nSELEC 1; ; SELECT a\n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := []ScriptStmt{
		{Text: "SELECT ';' FROM t"},
		{Text: "SELEC 1"},
		{Text: "SELECT a\n FROM t", Open: true},
	}
	if len(stmts) != len(want) {
		t.Fatalf("stmts = %+v", stmts)
	}
	for i, w := range want {
		s := stmts[i]
		if s.Text != w.Text || s.Open != w.Open || (s.Err == nil) != (s.Stmt != nil) || (s.Err != nil) != (i == 1) {
			t.Errorf("statement %d = %+v, want text %q open %v", i, s, w.Text, w.Open)
		}
	}

	// A literal still open at the end fails the script with an error more
	// text could mend; a bad character fails it with one that none can.
	for _, src := range []string{"SELECT 1; SELECT 'a;\nb", "SELECT 1; 'a;", `SELECT "a;`} {
		stmts, err := ParseScript(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !se.Unterminated() || stmts != nil {
			t.Errorf("%q: %+v, %v; want an unterminated literal", src, stmts, err)
		}
	}
	_, err = ParseScript("SELECT @;")
	var se *SyntaxError
	if !errors.As(err, &se) || se.Unterminated() {
		t.Errorf("a bad character: %v; want a syntax error more text cannot mend", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`CREATE TABLE`,
		`CREATE TABLE t (`,
		`INSERT INTO t VALUES`,
		`DELETE t`,
		`UPDATE t a = 1`,
		`SELECT a FROM t LIMIT x`,
		`SELECT a FROM t JOIN u`,
		`a = 1 ? b`,
		`a not b`,
		`x is y`,
		`SELECT a b c FROM t`,
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error", src)
		}
	}
	if _, err := ParseExpr(`a = 1 extra`); err == nil {
		t.Error("trailing tokens after expression must fail")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// String() output must reparse to the same string (idempotent render).
	srcs := []string{
		`inmsg = 'data' and dirst = 'Busy-d' ? dirpv = 'zero' : dirpv = 'one'`,
		`a in (1, 2, 3)`,
		`x is not null`,
		`not (a = 1 or b = 2)`,
		`case when a = 1 then 'x' else 'y' end`,
		`isrequest(inmsg)`,
		`n between 1 and 5`,
	}
	for _, src := range srcs {
		e1 := mustExpr(t, src)
		s1 := e1.String()
		e2 := mustExpr(t, s1)
		if s2 := e2.String(); s1 != s2 {
			t.Errorf("render not stable: %q -> %q", s1, s2)
		}
	}
}

func TestParseCountStar(t *testing.T) {
	s, err := ParseStatement(`SELECT COUNT(*) FROM D WHERE dirst = 'I'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*SelectStmt)
	c, ok := sel.Items[0].Expr.(Call)
	if !ok || c.Name != "count_star" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if !strings.Contains(c.String(), "count_star") {
		t.Fatal("render")
	}
}
