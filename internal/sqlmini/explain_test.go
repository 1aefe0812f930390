package sqlmini

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"coherdb/internal/rel"
)

// planLines renders a plan table as "op|target|est_rows|detail" lines for
// golden comparison.
func planLines(t *testing.T, p *rel.Table) []string {
	t.Helper()
	want := []string{"step", "op", "target", "est_rows", "detail"}
	if got := p.Columns(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("plan columns %v, want %v", got, want)
	}
	var out []string
	for i := 0; i < p.NumRows(); i++ {
		if s := p.Get(i, "step"); s.Int() != int64(i+1) {
			t.Fatalf("row %d has step %s", i, s)
		}
		out = append(out, fmt.Sprintf("%s|%s|%d|%s",
			p.Get(i, "op").Str(), p.Get(i, "target").Str(),
			p.Get(i, "est_rows").Int(), p.Get(i, "detail").Str()))
	}
	return out
}

func checkPlan(t *testing.T, db *DB, query string, want []string) {
	t.Helper()
	res, err := db.Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	got := planLines(t, res.Table)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("plan for %s:\n%s\nwant:\n%s",
			query, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainHashJoinWithPushdown(t *testing.T) {
	db := newTestDB(t)
	// Both WHERE conjuncts are column-equals-literal, so both become index
	// scans; the join then hashes the reduced right input (it is not a
	// whole-table scan, so no persistent index applies) and probes it with
	// the left rows.
	checkPlan(t, db,
		`EXPLAIN SELECT D.inmsg FROM D JOIN V ON D.inmsg = V.m WHERE D.dirst = 'SI' AND V.d = 'home'`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); storage=columnar`,
			`indexscan|V|1|index(d) = ('home'); storage=columnar`,
			`join|V|1|hash, 1 key(s), build=right`,
		})
}

func TestExplainIndexJoin(t *testing.T) {
	db := newTestDB(t)
	// The right side is a pristine whole-table scan, so the left rows
	// probe its persistent index, whatever the two sides' sizes.
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D JOIN V ON D.inmsg = V.m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`scan|V|5|storage=columnar`,
			`join|V|6|index nested-loop via V(m)`,
		})
}

func TestExplainNestedLoopJoin(t *testing.T) {
	db := newTestDB(t)
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D JOIN V ON D.inmsg <> V.m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`scan|V|5|storage=columnar`,
			`join|V|10|nested-loop: (D.inmsg <> V.m)`,
		})
}

func TestExplainCrossWithResidue(t *testing.T) {
	db := newTestDB(t)
	// The cross-source comparison cannot be pushed; it stays as a residual
	// filter above the cross product.
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D, V WHERE D.inmsg = V.m AND D.dirst = 'SI'`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); storage=columnar`,
			`scan|V|5|storage=columnar`,
			`cross|V|5|cross product`,
			`filter||1|(D.inmsg = V.m)`,
		})
}

func TestExplainSingleTableShape(t *testing.T) {
	db := newTestDB(t)
	// Single-table selects get the same index treatment as join inputs.
	checkPlan(t, db,
		`EXPLAIN SELECT DISTINCT inmsg FROM D WHERE dirst = 'SI' ORDER BY inmsg DESC LIMIT 1`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); storage=columnar`,
			`distinct||1|`,
			`sort||1|1 key(s)`,
			`limit||1|LIMIT 1`,
		})
}

func TestExplainGroupAndUnion(t *testing.T) {
	db := newTestDB(t)
	checkPlan(t, db,
		`EXPLAIN SELECT dirst, COUNT(*) FROM D GROUP BY dirst
		 UNION ALL SELECT m, COUNT(*) FROM V GROUP BY m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`group||1|1 key(s)`,
			`scan|V|5|storage=columnar`,
			`group||1|1 key(s)`,
			`union||2|ALL`,
		})
}

func TestExplainAggregateWithoutGroup(t *testing.T) {
	db := newTestDB(t)
	checkPlan(t, db,
		`EXPLAIN SELECT COUNT(*) FROM D`,
		[]string{
			`scan|D|6|storage=columnar`,
			`aggregate||1|`,
		})
}

func TestExplainEvalAnnotation(t *testing.T) {
	db := newTestDB(t)
	// A non-equality conjunct stays as a pushdown filter; with every
	// conjunct lowered to a selection-vector kernel the plan advertises the
	// column-at-a-time path, whether the conjunct reads one column or
	// several.
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D WHERE inmsg <> 'readex'`,
		[]string{
			`scan|D|2|pushdown: (inmsg <> 'readex'); eval=vectorized; storage=columnar`,
		})
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D WHERE dirst = 'SI' AND inmsg <> 'readex'`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); filter: (inmsg <> 'readex'); eval=vectorized; storage=columnar`,
		})
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D WHERE inmsg < dirst`,
		[]string{
			`scan|D|2|pushdown: (inmsg < dirst); eval=vectorized; storage=columnar`,
		})
	// A conjunct that does not compile has no plan: EXPLAIN fails as the
	// statement would, with the same error.
	_, err := db.Exec(`EXPLAIN SELECT * FROM D WHERE nosuch(inmsg)`)
	if !errors.Is(err, ErrUnknownFunc) || err.Error() != "sqlmini: unknown function: nosuch" {
		t.Fatalf("EXPLAIN of an unknown function: err = %v, want sqlmini: unknown function: nosuch", err)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`EXPLAIN SELECT * FROM D JOIN V ON D.inmsg = V.m`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.RowsScanned != 0 || st.HashJoins != 0 {
		t.Errorf("EXPLAIN scanned %d rows, ran %d hash joins; want 0", st.RowsScanned, st.HashJoins)
	}
	if st.LastQuery.Kind != "EXPLAIN" {
		t.Errorf("LastQuery.Kind = %q, want EXPLAIN", st.LastQuery.Kind)
	}
}

func TestExplainUnknownTable(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`EXPLAIN SELECT * FROM nope`); err == nil {
		t.Fatal("want error for unknown table")
	}
}
