package sqlmini

import (
	"errors"
	"strings"
	"testing"

	"coherdb/internal/rel"
)

func TestTokenKindStrings(t *testing.T) {
	for _, k := range []TokKind{TokEOF, TokIdent, TokKeyword, TokString, TokNumber, TokSymbol} {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if TokKind(200).String() != "token" {
		t.Fatal("unknown kind rendering")
	}
	if (Token{Kind: TokEOF}).String() != "end of input" {
		t.Fatal("EOF token rendering")
	}
}

func TestPutAndDropTable(t *testing.T) {
	db := NewDB()
	tab := rel.MustNewTable("X", "a")
	tab.MustInsert(rel.S("v"))
	db.PutTable(tab)
	got, ok := db.Table("X")
	if !ok || got.NumRows() != 1 {
		t.Fatal("PutTable lost the table")
	}
	if !db.DropTable("X") {
		t.Fatal("DropTable missed")
	}
	if db.DropTable("X") {
		t.Fatal("double drop reported true")
	}
}

func TestExprStringAllNodes(t *testing.T) {
	exprs := []string{
		`a = 1 ? b : c`,
		`a NOT IN ('x')`,
		`a IS NULL`,
		`a IS NOT NULL`,
		`a NOT BETWEEN 1 AND 2`,
		`NOT a`,
		`CASE WHEN a = 1 THEN 'x' END`,
		`f(a, 'lit', 3)`,
		`q.col = TRUE`,
		`a <= 2 OR a >= 4`,
	}
	for _, src := range exprs {
		e := mustExpr(t, src)
		s := e.String()
		if s == "" {
			t.Fatalf("empty rendering for %q", src)
		}
		// Must reparse.
		if _, err := ParseExpr(s); err != nil {
			t.Fatalf("rendering of %q does not reparse: %q: %v", src, s, err)
		}
	}
}

func TestColumnsOverEveryConstruct(t *testing.T) {
	e := mustExpr(t, `case when a in (b, 1) then c else d end ? e is null : f between g and h`)
	got := Columns(e)
	for _, want := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing %q in %v", want, got)
		}
	}
}

func TestResolveSymbolsOverEveryConstruct(t *testing.T) {
	isCol := func(s string) bool { return s == "col" }
	e := mustExpr(t, `case when col in (sym1, sym2) then sym3 else sym4 end ? col is not null : col between lo and hi`)
	r := ResolveSymbols(e, isCol)
	refs := Columns(r)
	if len(refs) != 1 {
		t.Fatalf("unresolved symbols remain: %v", refs)
	}
	// not + call + qualified col pass through.
	e2 := mustExpr(t, `not f(col, sym) and T.q = sym2`)
	r2 := ResolveSymbols(e2, isCol)
	refs2 := Columns(r2)
	if _, ok := refs2["q"]; !ok {
		t.Fatal("qualified column must survive resolution")
	}
	if _, ok := refs2["sym"]; ok {
		t.Fatal("call argument symbol not resolved")
	}
}

func TestLexMinusAfterParen(t *testing.T) {
	toks, err := Lex(`(a) - 1`)
	if err != nil {
		t.Fatal(err)
	}
	// After ')' the '-' is a symbol, not part of a number.
	found := false
	for _, tok := range toks {
		if tok.Kind == TokSymbol && tok.Text == "-" {
			found = true
		}
	}
	if !found {
		t.Fatalf("binary minus mis-lexed: %v", toks)
	}
}

func TestParseFromTableWithExplicitAs(t *testing.T) {
	s, err := ParseStatement(`SELECT x.a FROM t AS x`)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*SelectStmt).From[0].Alias != "x" {
		t.Fatal("AS alias lost")
	}
	if _, err := ParseStatement(`SELECT a FROM t AS`); err == nil {
		t.Fatal("dangling AS must fail")
	}
	if _, err := ParseStatement(`SELECT a FROM t JOIN u AS ON a = b`); err == nil {
		t.Fatal("bad join alias must fail")
	}
}

func TestParseBetweenErrors(t *testing.T) {
	for _, src := range []string{
		`a BETWEEN 1`,
		`a BETWEEN 1 OR 2`,
		`a NOT BETWEEN`,
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("%q must fail", src)
		}
	}
}

func TestParseCaseErrors(t *testing.T) {
	for _, src := range []string{
		`CASE WHEN a THEN END`,
		`CASE WHEN a = 1 THEN 2`,
		`CASE WHEN THEN 2 END`,
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("%q must fail", src)
		}
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`
		CREATE TABLE t (a, b);
		INSERT INTO t VALUES (2, 'x'), (1, 'z'), (1, 'a'), (2, 'a')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT a, b FROM t ORDER BY a, b DESC`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"1", "z"}, {"1", "a"}, {"2", "x"}, {"2", "a"}}
	for i, w := range want {
		if res.Get(i, "a").String() != w[0] || res.Get(i, "b").Str() != w[1] {
			t.Fatalf("row %d = %v,%v want %v", i, res.Get(i, "a"), res.Get(i, "b"), w)
		}
	}
}

func TestSelectExpressionItems(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`CREATE TABLE t (a); INSERT INTO t VALUES (1), (5)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT a BETWEEN 2 AND 9 AS mid, CASE WHEN a = 1 THEN 'one' ELSE 'many' END AS tag FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "mid").Bool() || !res.Get(1, "mid").Bool() {
		t.Fatalf("between projection wrong:\n%s", res)
	}
	if res.Get(0, "tag").Str() != "one" || res.Get(1, "tag").Str() != "many" {
		t.Fatalf("case projection wrong:\n%s", res)
	}
}

func TestUnionThreeBranches(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`
		CREATE TABLE t (a);
		INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT a FROM t WHERE a = 1
		UNION SELECT a FROM t WHERE a = 2
		UNION ALL SELECT a FROM t WHERE a = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
}

func TestEvalErrorsPropagate(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`CREATE TABLE t (a); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT nosuch(a) FROM t`,
		`SELECT a FROM t WHERE nosuch(a)`,
		`SELECT a FROM t ORDER BY nosuch(a)`,
		`SELECT a FROM t WHERE ghostcol = 1`,
		`UPDATE t SET a = nosuch(a)`,
		`DELETE FROM t WHERE nosuch(a)`,
		`INSERT INTO t VALUES (nosuch(1))`,
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%q must fail", q)
		}
	}
}

// TestUnknownNamesFailAtPlan: a column or function that does not resolve
// fails its statement when it plans, with the error text a row reaching
// it would give, whatever rows the tables hold. Every statement here
// selects, joins or updates no row.
func TestUnknownNamesFailAtPlan(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`CREATE TABLE t (a, b); INSERT INTO t VALUES (1, 'x'), (2, 'y'); CREATE TABLE e (a, c)`); err != nil {
		t.Fatal(err)
	}
	col := func(c string) string { return "sqlmini: unknown column: " + c }
	fn := func(f string) string { return "sqlmini: unknown function: " + f }
	for _, tc := range []struct{ q, want string }{
		{`SELECT ghost FROM t WHERE a = 99`, col("ghost")},
		{`SELECT a FROM t WHERE a = 99 AND nosuch(b)`, fn("nosuch")},
		{`SELECT * FROM e WHERE nosuch(a)`, fn("nosuch")},
		{`EXPLAIN SELECT * FROM e WHERE nosuch(a)`, fn("nosuch")},
		{`EXPLAIN ANALYZE SELECT ghost FROM e`, col("ghost")},
		{`SELECT a FROM t, e`, col("a")}, // ambiguous across sources
		{`SELECT t.a FROM t JOIN e ON t.a < e.ghost`, col("e.ghost")},
		{`SELECT t.a FROM t JOIN e ON t.a = e.a WHERE e.c = 1 AND nosuch(t.b)`, fn("nosuch")},
		{`SELECT a FROM t WHERE a = 99 ORDER BY nosuch(b)`, fn("nosuch")},
		{`SELECT a FROM t WHERE a = 99 GROUP BY ghost`, col("ghost")},
		{`SELECT a, COUNT(*) FROM t WHERE a = 99 GROUP BY a HAVING ghost > 1`, col("ghost")},
		{`SELECT MIN(ghost) FROM e`, col("ghost")},
		{`SELECT a FROM e UNION SELECT ghost FROM e`, col("ghost")},
		{`CREATE TABLE x AS SELECT ghost FROM e`, col("ghost")},
		{`UPDATE t SET b = ghost WHERE a = 99`, col("ghost")},
		{`UPDATE e SET c = nosuch(a)`, fn("nosuch")},
		{`DELETE FROM t WHERE a = 99 AND nosuch(b)`, fn("nosuch")},
		{`DELETE FROM e WHERE ghost = 1`, col("ghost")},
		{`INSERT INTO e VALUES (1, ghost)`, col("ghost")},
	} {
		_, err := db.Exec(tc.q)
		if !errors.Is(err, ErrUnknownColumn) && !errors.Is(err, ErrUnknownFunc) || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %s", tc.q, err, tc.want)
		}
		if p, perr := db.Prepare(tc.q); perr != nil {
			t.Errorf("%s: Prepare: %v", tc.q, perr)
		} else if _, _, err := p.ExecStatsDialect(true); err == nil || err.Error() != tc.want {
			t.Errorf("%s prepared: err %v, want %s", tc.q, err, tc.want)
		}
	}
	if res, err := db.Query(`SELECT COUNT(*) FROM t`); err != nil || res.At(0, 0).Int() != 2 {
		t.Fatalf("a failed statement changed t: %v, %v", res, err)
	}
}

func TestSelectItemStringNames(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`CREATE TABLE t (a); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// An unaliased expression item is named by its rendering.
	res, err := db.Query(`SELECT a = 1 FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Columns()[0], "a = 1") {
		t.Fatalf("column name = %q", res.Columns()[0])
	}
}
