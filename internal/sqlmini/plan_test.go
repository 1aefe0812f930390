package sqlmini

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
)

func TestPlanCacheHitAndMissCounters(t *testing.T) {
	db := newTestDB(t)
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	base := db.Stats()

	const q = `SELECT * FROM D WHERE dirst = 'SI'`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if got := st.PlanCacheMisses - base.PlanCacheMisses; got != 1 {
		t.Errorf("plan cache misses = %d, want 1", got)
	}
	if got := st.PlanCacheHits - base.PlanCacheHits; got != 2 {
		t.Errorf("plan cache hits = %d, want 2", got)
	}
	if got := reg.Counter("coherdb_sql_plan_cache_misses_total").Value(); got != 1 {
		t.Errorf("miss counter = %d, want 1", got)
	}
	if got := reg.Counter("coherdb_sql_plan_cache_hits_total").Value(); got != 2 {
		t.Errorf("hit counter = %d, want 2", got)
	}
	if got := reg.Counter("coherdb_sql_index_scans_total").Value(); got != 3 {
		t.Errorf("index scan counter = %d, want 3 (one per execution)", got)
	}
	// Leading/trailing whitespace does not split the cache key.
	if _, err := db.Query("  " + q + "\n"); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().PlanCacheMisses - base.PlanCacheMisses; got != 1 {
		t.Errorf("after whitespace variant, misses = %d, want 1", got)
	}
}

func TestPlanCacheServesFreshRowsAfterDML(t *testing.T) {
	db := newTestDB(t)
	const q = `SELECT dirpv FROM D WHERE dirst = 'SI'`
	count := func() int {
		t.Helper()
		tab, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return tab.NumRows()
	}
	if n := count(); n != 2 {
		t.Fatalf("seed rows = %d, want 2", n)
	}
	if _, err := db.Exec(`INSERT INTO D VALUES ('inv', 'SI', 'two', NULL, 'I')`); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 3 {
		t.Errorf("after INSERT, rows = %d, want 3 (stale index?)", n)
	}
	if _, err := db.Exec(`DELETE FROM D WHERE dirpv = 'gone'`); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Errorf("after DELETE, rows = %d, want 2 (stale index?)", n)
	}
	if _, err := db.Exec(`UPDATE D SET dirst = 'I' WHERE dirpv = 'one'`); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Errorf("after UPDATE, rows = %d, want 1 (stale index?)", n)
	}
	// The reads above were all plan-cache hits, not replans.
	st := db.Stats()
	if st.PlanCacheHits < 3 {
		t.Errorf("plan cache hits = %d, want >= 3", st.PlanCacheHits)
	}
}

func TestPlanCacheSurvivesDropAndRecreate(t *testing.T) {
	db := newTestDB(t)
	const q = `SELECT m FROM V WHERE s = 'local'`
	if tab, err := db.Query(q); err != nil || tab.NumRows() != 2 {
		t.Fatalf("seed query: %v rows, err %v", tab, err)
	}
	if _, err := db.Exec(`DROP TABLE V`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err == nil {
		t.Fatal("query after DROP must fail")
	}
	if err := db.ExecScript(`
		CREATE TABLE V (m, s, d, v);
		INSERT INTO V VALUES ('gets', 'local', 'home', 'VC0');
	`); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 || !tab.Get(0, "m").Equal(rel.S("gets")) {
		t.Errorf("after recreate, rows = %v", tab)
	}
}

func TestPutTableSameSchemaKeepsPlans(t *testing.T) {
	db := newTestDB(t)
	const q = `SELECT m FROM V WHERE s = 'remote'`
	if tab, err := db.Query(q); err != nil || tab.NumRows() != 1 {
		t.Fatalf("seed query: rows %v, err %v", tab, err)
	}
	// Same-shape replacement: cached plan must read the new rows.
	v2 := rel.MustNewTable("V", "m", "s", "d", "v")
	v2.MustInsert(rel.S("a"), rel.S("remote"), rel.S("home"), rel.S("VC1"))
	v2.MustInsert(rel.S("b"), rel.S("remote"), rel.S("home"), rel.S("VC2"))
	db.PutTable(v2)
	if tab, err := db.Query(q); err != nil || tab.NumRows() != 2 {
		t.Fatalf("after same-schema PutTable: rows %v, err %v", tab, err)
	}
	// Different-shape replacement: plans referencing dropped columns fail
	// cleanly rather than reading stale positions.
	v3 := rel.MustNewTable("V", "m", "chan")
	v3.MustInsert(rel.S("a"), rel.S("VC1"))
	db.PutTable(v3)
	if _, err := db.Query(q); err == nil {
		t.Fatal("query naming a dropped column must fail after reshape")
	}
}

func TestPreparedStatement(t *testing.T) {
	db := newTestDB(t)
	base := db.Stats()
	p, err := db.Prepare(`SELECT * FROM D WHERE dirst = 'SI'`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, _, err := p.ExecStatsDialect(false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != 2 {
			t.Fatalf("run %d: rows = %d, want 2", i, res.Table.NumRows())
		}
	}
	// All prepared executions are plan-cache hits; Prepare itself is not an
	// execution.
	st := db.Stats()
	if got := st.PlanCacheHits - base.PlanCacheHits; got != 4 {
		t.Errorf("prepared hits = %d, want 4", got)
	}
	if got := st.PlanCacheMisses - base.PlanCacheMisses; got != 0 {
		t.Errorf("prepared misses = %d, want 0", got)
	}

	if _, err := db.Prepare(`SELECT FROM WHERE`); err == nil {
		t.Fatal("Prepare must fail on a syntax error")
	}
	dml, err := db.Prepare(`INSERT INTO V VALUES ('x', 'local', 'home', 'VC0')`)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := dml.ExecStatsDialect(false); err != nil || res.Affected != 1 {
		t.Fatalf("prepared INSERT: %v, %v", res, err)
	}
}

// TestConcurrentQueryAndExec exercises the reader/writer split and the index
// maintenance under -race: many goroutines re-run the same cached indexed
// query while others insert and delete rows.
func TestConcurrentQueryAndExec(t *testing.T) {
	db := newTestDB(t)
	const q = `SELECT d.dirpv FROM D d JOIN V ON d.inmsg = V.m WHERE d.dirst = 'SI'`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Query(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ins := fmt.Sprintf(`INSERT INTO D VALUES ('readex', 'SI', 'w%d-%d', 'sinv', 'Busy-sd')`, w, i)
				if _, err := db.Exec(ins); err != nil {
					t.Error(err)
					return
				}
				del := fmt.Sprintf(`DELETE FROM D WHERE dirpv = 'w%d-%d'`, w, i)
				if _, err := db.Exec(del); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Writers cleaned up after themselves: back to the 2 seed SI rows that
	// join V on readex.
	tab, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("final rows = %d, want 2", tab.NumRows())
	}
}

func TestParseExprCached(t *testing.T) {
	const src = "inmsg = readex and dirst = SI"
	a, err := ParseExprCached(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseExprCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached parse differs: %v vs %v", a, b)
	}
	fresh, err := ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, fresh) {
		t.Errorf("cached tree %v differs from fresh parse %v", a, fresh)
	}
	if _, err := ParseExprCached("and and"); err == nil {
		t.Fatal("ParseExprCached must propagate parse errors")
	}
	// Errors are not cached as successes.
	if _, err := ParseExprCached("and and"); err == nil {
		t.Fatal("repeated bad parse must still fail")
	}
}
