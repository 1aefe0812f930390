package sqlmini

import (
	"errors"
	"strings"
	"testing"

	"coherdb/internal/rel"
)

// newTestDB builds a DB with a small directory table and the V channel
// assignment table, mirroring the paper's running example.
func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.ExecScript(`
		CREATE TABLE D (inmsg, dirst, dirpv, remmsg, nxtdirst);
		INSERT INTO D VALUES
			('readex', 'I',      'zero', NULL,   'Busy-d'),
			('readex', 'SI',     'one',  'sinv', 'Busy-sd'),
			('readex', 'SI',     'gone', 'sinv', 'Busy-sd'),
			('data',   'Busy-d', 'zero', NULL,   'MESI'),
			('idone',  'Busy-sd','zero', NULL,   'Busy-d'),
			('wb',     'MESI',   'one',  NULL,   'Busy-w');
		CREATE TABLE V (m, s, d, v);
		INSERT INTO V VALUES
			('readex', 'local',  'home', 'VC0'),
			('wb',     'local',  'home', 'VC0'),
			('sinv',   'home',   'remote', 'VC1'),
			('idone',  'remote', 'home', 'VC2'),
			('data',   'home',   'local', 'VC3');
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecSelectWhere(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT inmsg, nxtdirst FROM D WHERE dirst = 'SI'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 || res.NumCols() != 2 {
		t.Fatalf("result %dx%d\n%s", res.NumRows(), res.NumCols(), res)
	}
}

func TestExecSelectStar(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT * FROM D`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCols() != 5 || res.NumRows() != 6 {
		t.Fatalf("star result %dx%d", res.NumRows(), res.NumCols())
	}
}

func TestExecDistinct(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT DISTINCT inmsg FROM D`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 { // readex, data, idone, wb
		t.Fatalf("distinct rows = %d\n%s", res.NumRows(), res)
	}
}

func TestExecOrderByAndLimit(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT inmsg FROM D ORDER BY inmsg DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 || !res.Get(0, "inmsg").Equal(rel.S("wb")) {
		t.Fatalf("order/limit wrong:\n%s", res)
	}
	// ORDER BY an output alias.
	res, err = db.Query(`SELECT inmsg AS m FROM D ORDER BY m LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Get(0, "m").Equal(rel.S("data")) {
		t.Fatalf("alias order wrong:\n%s", res)
	}
}

func TestExecJoinHashPath(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT D.inmsg, V.v FROM D JOIN V ON D.inmsg = V.m WHERE D.dirst = 'SI'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("join rows = %d\n%s", res.NumRows(), res)
	}
	if !res.Get(0, "v").Equal(rel.S("VC0")) {
		t.Fatalf("join value wrong:\n%s", res)
	}
}

func TestExecJoinNestedLoopPath(t *testing.T) {
	db := newTestDB(t)
	// Non-equi ON forces the nested-loop path.
	res, err := db.Query(`SELECT D.inmsg, V.m FROM D JOIN V ON D.inmsg <> V.m WHERE D.inmsg = 'data'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 { // data joins the 4 other messages
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
}

func TestExecJoinWithAliasesSelfJoin(t *testing.T) {
	db := newTestDB(t)
	// Self-join of V: pairs where the destination of one assignment is the
	// source of another — the composition step of the deadlock analysis.
	res, err := db.Query(`SELECT a.m, b.m FROM V a JOIN V b ON a.d = b.s`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Empty() {
		t.Fatal("self-join found nothing")
	}
	cols := res.Columns()
	if cols[0] == cols[1] {
		t.Fatalf("duplicate output columns not disambiguated: %v", cols)
	}
}

func TestExecCrossFromList(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT COUNT(*) FROM D, V`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "count").Int() != 30 {
		t.Fatalf("cross count = %v", res.Get(0, "count"))
	}
}

func TestExecCountStar(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT COUNT(*) AS n FROM D WHERE inmsg = 'readex'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "n").Int() != 3 {
		t.Fatalf("count = %v", res.Get(0, "n"))
	}
}

func TestExecUnion(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Query(`SELECT inmsg FROM D WHERE dirst = 'I' UNION SELECT inmsg FROM D WHERE dirst = 'SI'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 { // readex appears in both; UNION dedups
		t.Fatalf("union rows = %d\n%s", res.NumRows(), res)
	}
	res, err = db.Query(`SELECT inmsg FROM D WHERE dirst = 'I' UNION ALL SELECT inmsg FROM D WHERE dirst = 'SI'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("union all rows = %d", res.NumRows())
	}
	if _, err := db.Query(`SELECT inmsg FROM D UNION SELECT m, s FROM V`); !errors.Is(err, rel.ErrSchema) {
		t.Fatalf("mismatched union err = %v", err)
	}
}

// TestUnionOrderByLimitApplyToWholeChain checks that a trailing ORDER BY
// and LIMIT sort and cut the whole UNION, not its last branch, and that a
// branch before the last cannot carry them.
func TestUnionOrderByLimitApplyToWholeChain(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec(`CREATE TABLE u (v)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO u VALUES ('b'), ('a')`); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		`SELECT v FROM u WHERE v = 'b' UNION ALL SELECT v FROM u ORDER BY v LIMIT 1`:    "a",
		`SELECT v FROM u WHERE v = 'b' UNION ALL SELECT v FROM u ORDER BY v DESC`:       "b b a",
		`SELECT v AS w FROM u UNION SELECT v FROM u WHERE v = 'a' ORDER BY w LIMIT 5`:   "a b",
		`SELECT v FROM u WHERE v = 'a' UNION ALL SELECT v FROM u WHERE v = 'b' LIMIT 1`: "a",
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []string
		for i := 0; i < res.NumRows(); i++ {
			got = append(got, res.At(i, 0).Str())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s = %v, want %s", q, got, want)
		}
	}
	for _, q := range []string{
		`SELECT v FROM u ORDER BY v UNION SELECT v FROM u`,
		`SELECT v FROM u LIMIT 1 UNION ALL SELECT v FROM u`,
	} {
		var syn *SyntaxError
		if _, err := db.Query(q); !errors.As(err, &syn) {
			t.Errorf("%s: err = %v, want a syntax error", q, err)
		}
	}
	// The chain sorts by its output names only.
	if _, err := db.Query(`SELECT v AS w FROM u UNION SELECT v FROM u ORDER BY v`); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("ORDER BY a source column of a UNION: err = %v", err)
	}
	checkPlan(t, db,
		`EXPLAIN SELECT v FROM u WHERE v = 'b' UNION ALL SELECT v FROM u ORDER BY v LIMIT 1`,
		[]string{
			`indexscan|u|1|index(v) = ('b'); storage=columnar`,
			`scan|u|2|storage=columnar`,
			`union||3|ALL`,
			`sort||3|1 key(s)`,
			`limit||1|LIMIT 1`,
		})
}

func TestExecCreateTableAsSelect(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`CREATE TABLE busyrows AS SELECT inmsg, dirst FROM D WHERE dirst IN ('Busy-d', 'Busy-sd')`); err != nil {
		t.Fatal(err)
	}
	bt := db.MustTable("busyrows")
	if bt.NumRows() != 2 {
		t.Fatalf("rows = %d", bt.NumRows())
	}
	if _, err := db.Exec(`CREATE TABLE busyrows (x)`); !errors.Is(err, ErrTableExist) {
		t.Fatalf("dup create err = %v", err)
	}
}

func TestExecInsertWithColumnSubset(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`INSERT INTO D (inmsg, dirst) VALUES ('retry', 'I')`); err != nil {
		t.Fatal(err)
	}
	d := db.MustTable("D")
	last := d.NumRows() - 1
	if !d.Get(last, "inmsg").Equal(rel.S("retry")) || !d.Get(last, "dirpv").IsNull() {
		t.Fatal("subset insert wrong")
	}
	if _, err := db.Exec(`INSERT INTO D (ghost) VALUES ('x')`); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`INSERT INTO D (inmsg, dirst) VALUES ('only-one')`); !errors.Is(err, rel.ErrArity) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecDelete(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`DELETE FROM V WHERE v = 'VC0'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 || db.MustTable("V").NumRows() != 3 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res, err = db.Exec(`DELETE FROM V`)
	if err != nil || res.Affected != 3 {
		t.Fatalf("delete all: %v, %d", err, res.Affected)
	}
}

func TestExecUpdate(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`UPDATE V SET v = 'VC4' WHERE m = 'idone'`)
	if err != nil || res.Affected != 1 {
		t.Fatalf("update: %v, %+v", err, res)
	}
	out, err := db.Query(`SELECT v FROM V WHERE m = 'idone'`)
	if err != nil || !out.Get(0, "v").Equal(rel.S("VC4")) {
		t.Fatalf("update lost: %v\n%s", err, out)
	}
	// Simultaneous assignment semantics.
	if err := db.ExecScript(`CREATE TABLE p (a, b); INSERT INTO p VALUES (1, 2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE p SET a = b, b = a`); err != nil {
		t.Fatal(err)
	}
	pt := db.MustTable("p")
	if pt.Get(0, "a").Int() != 2 || pt.Get(0, "b").Int() != 1 {
		t.Fatalf("swap failed: %s", pt)
	}
}

func TestExecDropTable(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`DROP TABLE V`); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("V"); ok {
		t.Fatal("V still present")
	}
	if _, err := db.Exec(`DROP TABLE V`); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`DROP TABLE IF EXISTS V`); err != nil {
		t.Fatalf("IF EXISTS err = %v", err)
	}
}

func TestExecQueryEmptyIdiom(t *testing.T) {
	db := newTestDB(t)
	// The invariant idiom: "[Select ... where <violation>] = empty".
	empty, err := db.QueryEmpty(`SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'`)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Fatal("expected no violations in the seed table")
	}
	empty, err = db.QueryEmpty(`SELECT inmsg FROM D WHERE dirst = 'SI'`)
	if err != nil || empty {
		t.Fatalf("expected non-empty: %v %v", empty, err)
	}
}

func TestExecRegisteredFunction(t *testing.T) {
	db := newTestDB(t)
	db.Register("isrequest", func(args []rel.Value) (rel.Value, error) {
		m := args[0].Str()
		return rel.B(m == "readex" || m == "wb"), nil
	})
	res, err := db.Query(`SELECT DISTINCT inmsg FROM D WHERE isrequest(inmsg)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
}

func TestExecNoSuchTable(t *testing.T) {
	db := NewDB()
	for _, src := range []string{
		`SELECT * FROM ghost`,
		`INSERT INTO ghost VALUES (1)`,
		`DELETE FROM ghost`,
		`UPDATE ghost SET a = 1`,
	} {
		if _, err := db.Exec(src); !errors.Is(err, ErrNoTable) {
			t.Errorf("%q err = %v, want ErrNoTable", src, err)
		}
	}
}

func TestExecQueryOnNonQuery(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query(`DELETE FROM V`); err == nil {
		t.Fatal("Query on DELETE must error")
	}
}

func TestExecFromlessSelect(t *testing.T) {
	db := NewDB()
	res, err := db.Query(`SELECT 1 AS one, 'x' AS s`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Get(0, "one").Int() != 1 || !res.Get(0, "s").Equal(rel.S("x")) {
		t.Fatalf("fromless select:\n%s", res)
	}
}

func TestExecAmbiguousColumnIsError(t *testing.T) {
	db := newTestDB(t)
	if err := db.ExecScript(`CREATE TABLE W (m, q); INSERT INTO W VALUES ('readex', 'VC9')`); err != nil {
		t.Fatal(err)
	}
	// m exists in both V and W: unqualified reference must fail.
	if _, err := db.Query(`SELECT m FROM V, W`); err == nil {
		t.Fatal("ambiguous column must error")
	}
	// Qualified reference is fine.
	if _, err := db.Query(`SELECT V.m FROM V, W`); err != nil {
		t.Fatal(err)
	}
}

func TestExecStarQualifiesAmbiguous(t *testing.T) {
	db := newTestDB(t)
	if err := db.ExecScript(`CREATE TABLE W (m); INSERT INTO W VALUES ('x')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT * FROM V, W`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Columns() {
		if strings.Contains(c, ".") {
			found = true
		}
	}
	if !found {
		t.Fatalf("ambiguous star columns not qualified: %v", res.Columns())
	}
}

func TestExecScriptStopsOnError(t *testing.T) {
	db := NewDB()
	err := db.ExecScript(`CREATE TABLE a (x); SELECT * FROM nope; CREATE TABLE b (y)`)
	if err == nil {
		t.Fatal("script must fail")
	}
	if _, ok := db.Table("b"); ok {
		t.Fatal("statements after error must not run")
	}
}

func TestDBNames(t *testing.T) {
	db := newTestDB(t)
	names := db.Names()
	if len(names) != 2 || names[0] != "D" || names[1] != "V" {
		t.Fatalf("names = %v", names)
	}
}

func TestMustTablePanics(t *testing.T) {
	db := NewDB()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.MustTable("ghost")
}

func TestBuiltinFunctions(t *testing.T) {
	db := NewDB()
	res, err := db.Query(`SELECT typename('x') AS t1, coalesce2(NULL, 'y') AS t2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t1").Str() != "string" || res.Get(0, "t2").Str() != "y" {
		t.Fatalf("builtins:\n%s", res)
	}
}

func TestStrictNullsToggle(t *testing.T) {
	db := newTestDB(t)
	db.SetStrictNulls(true)
	// remmsg = NULL never matches under ANSI semantics.
	res, err := db.Query(`SELECT inmsg FROM D WHERE remmsg = NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatalf("strict: rows = %d", res.NumRows())
	}
	db.SetStrictNulls(false)
	res, err = db.Query(`SELECT inmsg FROM D WHERE remmsg = NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("dialect: rows = %d\n%s", res.NumRows(), res)
	}
}

// TestIndexScanWithoutMatchKeepsNothing: an index scan whose key no row
// holds returns no rows even when the rest of its filter runs on the
// selection-vector kernels. It once handed the kernels the whole table,
// so the rows the filter alone accepted came back.
func TestIndexScanWithoutMatchKeepsNothing(t *testing.T) {
	db := newTestDB(t)
	for _, q := range []string{
		`SELECT * FROM D WHERE dirst = 'absent' AND inmsg IS NOT NULL`,
		`SELECT * FROM D WHERE dirst = 'absent' AND inmsg <> dirpv`,
	} {
		tab, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != 0 {
			t.Errorf("%s: %d rows, want 0", q, tab.NumRows())
		}
	}
}
