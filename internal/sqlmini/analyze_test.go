package sqlmini

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"coherdb/internal/rel"
)

// Volatile measured fields are normalized before golden comparison: wall
// times and steal counts vary run to run, morsel counts and row counts do
// not.
var (
	azSteals = regexp.MustCompile(`steals=\d+`)
	azPhases = regexp.MustCompile(`build_us=\d+ probe_us=\d+`)
	azArenaB = regexp.MustCompile(`arena_bytes=\d+`)
)

// analyzeLines renders an EXPLAIN ANALYZE table as "op|target|rows|detail"
// lines with volatile fields masked. time_us is checked for presence and
// sanity but not compared.
func analyzeLines(t *testing.T, p *rel.Table) []string {
	t.Helper()
	want := []string{"step", "op", "target", "rows", "time_us", "detail"}
	if got := p.Columns(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("analyze columns %v, want %v", got, want)
	}
	var out []string
	for i := 0; i < p.NumRows(); i++ {
		if s := p.Get(i, "step"); s.Int() != int64(i+1) {
			t.Fatalf("row %d has step %s", i, s)
		}
		if us := p.Get(i, "time_us").Int(); us < 0 {
			t.Fatalf("row %d has negative time_us %d", i, us)
		}
		detail := p.Get(i, "detail").Str()
		detail = azSteals.ReplaceAllString(detail, "steals=S")
		detail = azPhases.ReplaceAllString(detail, "build_us=T probe_us=T")
		detail = azArenaB.ReplaceAllString(detail, "arena_bytes=B")
		out = append(out, fmt.Sprintf("%s|%s|%d|%s",
			p.Get(i, "op").Str(), p.Get(i, "target").Str(),
			p.Get(i, "rows").Int(), detail))
	}
	return out
}

func checkAnalyze(t *testing.T, db *DB, query string, want []string) {
	t.Helper()
	res, err := db.Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	got := analyzeLines(t, res.Table)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("analyze for %s:\n%s\nwant:\n%s",
			query, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainAnalyzeIndexJoin(t *testing.T) {
	db := newTestDB(t)
	// Measured counterpart of TestExplainIndexJoin: the rows column holds
	// rows each operator actually produced, not estimates, and the join's
	// detail carries the bytes of the gathered output columns.
	checkAnalyze(t, db,
		`EXPLAIN ANALYZE SELECT * FROM D JOIN V ON D.inmsg = V.m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`scan|V|5|storage=columnar`,
			`join|V|6|index nested-loop via V(m); arena_bytes=B`,
			`project||6|`,
		})
}

func TestExplainAnalyzeHashJoin(t *testing.T) {
	db := newTestDB(t)
	// Both inputs are index-reduced, so the join builds an ad-hoc hash
	// table over the right input, the same strategy EXPLAIN plans; the
	// detail records the build side and the phase split.
	checkAnalyze(t, db,
		`EXPLAIN ANALYZE SELECT D.inmsg FROM D JOIN V ON D.inmsg = V.m WHERE D.dirst = 'SI' AND V.d = 'home'`,
		[]string{
			`indexscan|D|2|index(dirst) = ('SI'); storage=columnar`,
			`indexscan|V|3|index(d) = ('home'); storage=columnar`,
			`join|V|2|hash, 1 key(s), build=right; build_us=T probe_us=T; arena_bytes=B`,
			`project||2|`,
		})
}

func TestExplainAnalyzeParallelScan(t *testing.T) {
	db := bigTestDB(t, 64)
	forceParallel(db)
	// 64 rows at an 8-row morsel split into 8 morsels; the morsel count is
	// deterministic, steal counts are not. Both conjuncts vectorize (the
	// range compare through the memoized single-column kernel), so the scan
	// reports the measured selection density and batch count.
	checkAnalyze(t, db,
		`EXPLAIN ANALYZE SELECT id, val FROM T WHERE val > 50 AND flag IS NOT NULL`,
		[]string{
			`scan|T|23|pushdown: (val > 50) AND (flag IS NOT NULL); eval=vectorized; storage=columnar; sel_density=0.36 vec_batches=8; morsels=8 steals=S`,
			`project||23|`,
		})
}

func TestExplainAnalyzeGroupSortLimit(t *testing.T) {
	db := bigTestDB(t, 64)
	checkAnalyze(t, db,
		`EXPLAIN ANALYZE SELECT grp, COUNT(*) AS n FROM T GROUP BY grp ORDER BY grp LIMIT 3`,
		[]string{
			`scan|T|64|storage=columnar`,
			`group||7|1 key(s)`,
			`sort||7|1 key(s)`,
			`limit||3|LIMIT 3`,
		})
}

func TestExplainAnalyzeExecutes(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`EXPLAIN ANALYZE SELECT * FROM D JOIN V ON D.inmsg = V.m`); err != nil {
		t.Fatal(err)
	}
	// Unlike plain EXPLAIN (see TestExplainDoesNotExecute), ANALYZE runs
	// the query for real.
	st := db.Stats()
	if st.RowsScanned == 0 {
		t.Error("EXPLAIN ANALYZE scanned 0 rows; want > 0")
	}
	if st.IndexJoins != 1 {
		t.Errorf("EXPLAIN ANALYZE ran %d index joins, want 1", st.IndexJoins)
	}
}

func TestExplainAnalyzeMatchesSerialResults(t *testing.T) {
	// Turning analyze on must not change what the underlying query
	// produces: run each parallel query with and without instrumentation
	// and compare the analyze row counts against the real result sizes.
	for _, q := range parallelQueries {
		db := bigTestDB(t, 96)
		forceParallel(db)
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.Exec(`EXPLAIN ANALYZE ` + q)
		if err != nil {
			t.Fatal(err)
		}
		last := plan.Table.NumRows() - 1
		if got := plan.Table.Get(last, "rows").Int(); got != int64(res.NumRows()) {
			t.Errorf("%s: final analyze op reports %d rows, query produced %d",
				q, got, res.NumRows())
		}
	}
}
