package sqlmini

import (
	"strings"
	"testing"

	"coherdb/internal/rel"
)

func groupDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.ExecScript(`
		CREATE TABLE msgs (m, class, vc);
		INSERT INTO msgs VALUES
			('readex', 'request',  'VC0'),
			('read',   'request',  'VC0'),
			('sinv',   'request',  'VC1'),
			('idone',  'response', 'VC2'),
			('data',   'response', 'VC3'),
			('compl',  'response', 'VC3')`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGroupByCount(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT class, COUNT(*) AS n FROM msgs GROUP BY class`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "n").Int() != 3 {
			t.Fatalf("group %v count = %v", res.Get(i, "class"), res.Get(i, "n"))
		}
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT class, vc, COUNT(*) AS n FROM msgs GROUP BY class, vc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 { // (request,VC0)=2 (request,VC1)=1 (response,VC2)=1 (response,VC3)=2
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, COUNT(*) AS n FROM msgs GROUP BY vc HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 { // VC0 and VC3
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "n").Int() != 2 {
			t.Fatalf("bad group survived HAVING:\n%s", res)
		}
	}
}

func TestGroupByWithWhere(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, COUNT(*) AS n FROM msgs WHERE class = 'request' GROUP BY vc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
}

func TestGroupByDuplicateDetectionIdiom(t *testing.T) {
	// The determinism-invariant idiom: duplicate key detection.
	db := groupDB(t)
	if _, err := db.Exec(`INSERT INTO msgs VALUES ('readex', 'request', 'VC9')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT m, COUNT(*) AS n FROM msgs GROUP BY m HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || !res.Get(0, "m").Equal(rel.S("readex")) {
		t.Fatalf("duplicate not isolated:\n%s", res)
	}
	if res.Get(0, "n").Int() != 2 {
		t.Fatalf("count = %v", res.Get(0, "n"))
	}
}

// TestGroupByEmptyInput: a query aggregates when it has GROUP BY, HAVING
// or an aggregate anywhere in its select list. Without GROUP BY its whole
// input is one group, even when the input is empty; with GROUP BY an
// empty input has no groups.
func TestGroupByEmptyInput(t *testing.T) {
	db := groupDB(t)
	if err := db.ExecScript(`CREATE TABLE t (a, b); INSERT INTO t VALUES (1, 'x'), (2, 'y'), (2, 'z')`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, want string }{
		{`SELECT m, COUNT(*) FROM msgs WHERE m = 'ghost' GROUP BY m`, ``},
		// An aggregate under CASE (or IN, BETWEEN, IS NULL) aggregates.
		{`SELECT CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM t`, `'many'`},
		{`SELECT a FROM t WHERE a = 2 AND COUNT(*) IS NULL`, `error`},
		// HAVING without GROUP BY filters the one group.
		{`SELECT COUNT(*) FROM t HAVING COUNT(*) > 5`, ``},
		{`SELECT COUNT(*) FROM t HAVING COUNT(*) > 2`, `3`},
		// An empty input is still one group.
		{`SELECT MIN(a), COUNT(*) FROM t WHERE a = 99`, `NULL, 0`},
		{`SELECT COUNT(*) FROM t WHERE a = 99`, `0`},
		{`SELECT MAX(b), COUNT(*) AS n FROM t WHERE a = 2`, `'z', 2`},
	} {
		res, err := db.Query(tc.q)
		got := "error"
		if err == nil {
			var rows []string
			for i := 0; i < res.NumRows(); i++ {
				var vals []string
				for j := 0; j < res.NumCols(); j++ {
					vals = append(vals, res.At(i, j).Quoted())
				}
				rows = append(rows, strings.Join(vals, ", "))
			}
			got = strings.Join(rows, "; ")
		}
		if got != tc.want {
			t.Errorf("%s = %q (err %v), want %q", tc.q, got, err, tc.want)
		}
	}
}

func TestGroupByOrderBy(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, COUNT(*) AS n FROM msgs GROUP BY vc ORDER BY n DESC, vc`)
	if err != nil {
		t.Fatal(err)
	}
	// Counts: VC0=2, VC3=2, VC1=1, VC2=1 -> order VC0, VC3, VC1, VC2.
	want := []string{"VC0", "VC3", "VC1", "VC2"}
	for i, w := range want {
		if res.Get(i, "vc").Str() != w {
			t.Fatalf("row %d = %v, want %s\n%s", i, res.Get(i, "vc"), w, res)
		}
	}
}

func TestGroupByLimit(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT m, COUNT(*) AS n FROM msgs GROUP BY m LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestMinMaxAggregates(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT class, MIN(m) AS lo, MAX(m) AS hi, COUNT(*) AS n FROM msgs GROUP BY class ORDER BY class`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	// requests: read, readex, sinv -> min=read, max=sinv
	if res.Get(0, "lo").Str() != "read" || res.Get(0, "hi").Str() != "sinv" {
		t.Fatalf("request min/max wrong:\n%s", res)
	}
	// responses: compl, data, idone -> min=compl, max=idone
	if res.Get(1, "lo").Str() != "compl" || res.Get(1, "hi").Str() != "idone" {
		t.Fatalf("response min/max wrong:\n%s", res)
	}
}

func TestMinMaxWholeTable(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT MIN(m) AS lo, MAX(vc) AS hi FROM msgs`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Get(0, "lo").Str() != "compl" || res.Get(0, "hi").Str() != "VC3" {
		t.Fatalf("whole-table aggregate wrong:\n%s", res)
	}
}

func TestMinMaxSkipsNulls(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`CREATE TABLE t (a); INSERT INTO t VALUES (NULL), (3), (NULL), (1)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT MIN(a) AS lo, MAX(a) AS hi FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "lo").Int() != 1 || res.Get(0, "hi").Int() != 3 {
		t.Fatalf("NULL handling wrong:\n%s", res)
	}
}

func TestHavingWithMinMax(t *testing.T) {
	db := groupDB(t)
	// VC3 carries {compl, data}: MAX is data.
	res, err := db.Query(`SELECT vc FROM msgs GROUP BY vc HAVING MAX(m) = 'data'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Get(0, "vc").Str() != "VC3" {
		t.Fatalf("HAVING max wrong:\n%s", res)
	}
}

func TestGroupByErrors(t *testing.T) {
	db := groupDB(t)
	for _, q := range []string{
		`SELECT m FROM msgs GROUP BY`,
		`SELECT m FROM msgs GROUP m`,
		`SELECT m FROM msgs GROUP BY nosuchcol`,
		`SELECT m FROM msgs GROUP BY m HAVING nosuch(m)`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%q must fail", q)
		}
	}
}
