package sqlmini

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// bigTestDB builds a DB whose table T (rows rows, 7 groups) and lookup
// table L are large enough to split into several small morsels once
// forceParallel shrinks the morsel size.
func bigTestDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	tab, err := rel.NewTable("T", "id", "grp", "val", "flag")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		flag := rel.S("on")
		if i%3 == 0 {
			flag = rel.Null()
		}
		err := tab.InsertRow([]rel.Value{
			rel.I(int64(i)),
			rel.S(fmt.Sprintf("g%d", i%7)),
			rel.I(int64(i * i % 101)),
			flag,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db.PutTable(tab)
	lk, err := rel.NewTable("L", "grp", "chan")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := lk.InsertRow([]rel.Value{rel.S(fmt.Sprintf("g%d", i)), rel.S(fmt.Sprintf("VC%d", i%4))}); err != nil {
			t.Fatal(err)
		}
	}
	db.PutTable(lk)
	return db
}

// forceParallel installs a 4-worker pool and an 8-row morsel so the
// parallel path runs even on a single-CPU machine (the shared pool is
// sized to GOMAXPROCS, which would silently keep everything serial).
func forceParallel(db *DB) {
	db.SetPool(pool.New(4))
	db.SetWorkers(4)
	db.SetMorselSize(8)
}

// parallelQueries exercises every parallel phase: a compiled pushdown
// filter, a hash join probing the big side, a self join big enough to
// parallelize both build and probe, and grouping over a filtered scan.
var parallelQueries = []string{
	`SELECT id, val FROM T WHERE val > 50 AND flag IS NOT NULL`,
	`SELECT T.id, L.chan FROM T JOIN L ON T.grp = L.grp WHERE T.val > 10`,
	`SELECT a.id, b.id FROM T a JOIN T b ON a.grp = b.grp WHERE a.val > 10 AND b.val > 10 AND a.val > b.val`,
	`SELECT grp, COUNT(*) AS n, MAX(val) AS m FROM T WHERE flag IS NOT NULL GROUP BY grp ORDER BY grp`,
}

// TestParallelMatchesSerial pins the determinism guarantee on synthetic
// tables: morsel-parallel execution must produce byte-identical results
// to the serial path, and must actually have taken the parallel path.
func TestParallelMatchesSerial(t *testing.T) {
	db := bigTestDB(t, 200)
	for _, q := range parallelQueries {
		db.SetPool(nil)
		db.SetWorkers(1)
		db.SetMorselSize(0)
		serial, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		forceParallel(db)
		par, err := db.Query(q)
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		if serial.String() != par.String() {
			t.Errorf("parallel result differs for %q:\nserial:\n%s\nparallel:\n%s", q, serial, par)
		}
		if got := db.Stats().LastQuery.Morsels; got == 0 {
			t.Errorf("parallel run of %q reported 0 morsels: parallel path not taken", q)
		}
	}
}

// TestParallelWorkerStats checks the surfaced parallelism numbers: a
// parallel phase reports its participants' busy time, and the DB-level
// aggregates fold the morsel counters.
func TestParallelWorkerStats(t *testing.T) {
	db := bigTestDB(t, 200)
	forceParallel(db)
	if _, err := db.Query(parallelQueries[0]); err != nil {
		t.Fatal(err)
	}
	qs := db.Stats().LastQuery
	if qs.Morsels == 0 || len(qs.WorkerBusy) == 0 {
		t.Fatalf("morsels = %d, worker busy entries = %d, want both > 0", qs.Morsels, len(qs.WorkerBusy))
	}
	if db.Stats().Morsels < int64(qs.Morsels) {
		t.Fatalf("DB aggregate morsels %d < last query's %d", db.Stats().Morsels, qs.Morsels)
	}
}

// TestExplainParallelAnnotations checks that EXPLAIN surfaces the
// executor's parallel gate: eligible scans and hash probes carry the
// workers/morsel annotation, and the same plan under a serial
// configuration does not.
func TestExplainParallelAnnotations(t *testing.T) {
	db := bigTestDB(t, 200)
	forceParallel(db)
	plan, err := db.Query(`EXPLAIN SELECT id FROM T WHERE val > 50`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "parallel scan (workers=4, morsel=8)") {
		t.Errorf("EXPLAIN missing parallel scan annotation:\n%s", plan)
	}
	// Filters on both sides rule out the index nested-loop paths, so the
	// plan falls to the ad-hoc hash join with its parallel probe.
	plan, err = db.Query(`EXPLAIN SELECT a.id, b.id FROM T a JOIN T b ON a.grp = b.grp WHERE a.val > 10 AND b.val > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "parallel probe (workers=4, morsel=8)") {
		t.Errorf("EXPLAIN missing parallel probe annotation:\n%s", plan)
	}
	db.SetWorkers(1)
	plan, err = db.Query(`EXPLAIN SELECT id FROM T WHERE val > 50`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.String(), "parallel") {
		t.Errorf("serial EXPLAIN should not advertise parallelism:\n%s", plan)
	}
}

// TestConcurrentParallelSelects hammers one DB from many goroutines while
// the pool is active — the -race gate for the executor's shared state
// (plan cache, pool rendezvous, zero-copy scans). Every result must match
// the precomputed serial answer.
func TestConcurrentParallelSelects(t *testing.T) {
	db := bigTestDB(t, 200)
	want := make([]string, len(parallelQueries))
	db.SetWorkers(1)
	for i, q := range parallelQueries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.String()
	}
	forceParallel(db)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				for i, q := range parallelQueries {
					res, err := db.Query(q)
					if err != nil {
						errc <- fmt.Errorf("%q: %v", q, err)
						return
					}
					if res.String() != want[i] {
						errc <- fmt.Errorf("%q: concurrent result diverged", q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPlanCacheDialectSlots toggles the NULL dialect between executions
// of one cached statement: each dialect must keep its own compiled plan
// (constraint dialect: "col = NULL" selects the NULL rows; ANSI: the
// comparison is unknown and selects nothing).
func TestPlanCacheDialectSlots(t *testing.T) {
	db := newTestDB(t)
	const q = `SELECT inmsg FROM D WHERE remmsg = NULL`
	count := func() int {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.NumRows()
	}
	for round := 0; round < 2; round++ {
		db.SetStrictNulls(false)
		if got := count(); got != 4 {
			t.Fatalf("round %d constraint dialect: %d rows, want 4", round, got)
		}
		db.SetStrictNulls(true)
		if got := count(); got != 0 {
			t.Fatalf("round %d ANSI dialect: %d rows, want 0", round, got)
		}
	}
	if pc := db.Stats().LastQuery.PlanCache; pc != "hit" {
		t.Fatalf("final execution plan cache = %q, want hit", pc)
	}
}

// TestCompileBoundUnboundColumn: plan-bound compilation only accepts
// plan-bound expressions; a bare Col is one the planner could not resolve
// and must fail to compile, as a value and as a predicate, with the
// unknown-column error a statement reports, rather than resolve names per
// row.
func TestCompileBoundUnboundColumn(t *testing.T) {
	ev := Evaluator{}
	if _, err := ev.compileValue(Col{Name: "x"}); !errors.Is(err, ErrUnknownColumn) || err.Error() != "sqlmini: unknown column: x" {
		t.Fatalf("compiling a bare Col: err = %v, want ErrUnknownColumn", err)
	}
	if _, err := ev.CompileBoundVec(Binary{Op: "=", L: Col{Qualifier: "t", Name: "x"}, R: Lit{Val: rel.S("a")}}); !errors.Is(err, ErrUnknownColumn) || err.Error() != "sqlmini: unknown column: t.x" {
		t.Fatalf("CompileBoundVec with unbound column: err = %v, want ErrUnknownColumn", err)
	}
}

// TestCompileBoundValueConditionals pins the value-position semantics of
// CASE and ternary under compilation: the chosen branch's raw value (not
// its truth value) flows into the enclosing comparison, matching the
// interpreter exactly, on each row as a one-row batch; compiled as a
// value, the conditional itself yields the interpreter's value.
func TestCompileBoundValueConditionals(t *testing.T) {
	// Row layout: [0]=tag, [1]=payload.
	col := func(i int, name string) Expr { return boundCol{Col: Col{Name: name}, Idx: i} }
	caseExpr := Binary{
		Op: "=",
		L: Case{
			Whens: []When{{
				Cond: Binary{Op: "=", L: col(0, "tag"), R: Lit{Val: rel.S("yes")}},
				Val:  col(1, "payload"),
			}},
		},
		R: Lit{Val: rel.S("MESI")},
	}
	ternExpr := Binary{
		Op: "=",
		L: Ternary{
			Cond: Binary{Op: "=", L: col(0, "tag"), R: Lit{Val: rel.S("yes")}},
			Then: col(1, "payload"),
			Else: Lit{Val: rel.S("other")},
		},
		R: Lit{Val: rel.S("MESI")},
	}
	rows := [][]rel.Value{
		{rel.S("yes"), rel.S("MESI")}, // branch taken, payload matches
		{rel.S("yes"), rel.S("SI")},   // branch taken, payload differs
		{rel.S("no"), rel.S("MESI")},  // CASE: no arm -> NULL; ternary: else
		{rel.Null(), rel.S("MESI")},   // unknown condition
	}
	ev := Evaluator{}
	for name, e := range map[string]Expr{"case": caseExpr, "ternary": ternExpr} {
		pred, err := ev.CompileBoundVec(e)
		if err != nil {
			t.Fatalf("%s: CompileBoundVec: %v", name, err)
		}
		cond := e.(Binary).L
		val, err := ev.compileValue(cond)
		if err != nil {
			t.Fatalf("%s: compileValue: %v", name, err)
		}
		ev := Evaluator{}
		for i, row := range rows {
			got, err := RowTrue(pred, codesOf(row))
			if err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
			env := MapEnv{"tag": row[0], "payload": row[1]}
			want, err := ev.True(e, env)
			if err != nil {
				t.Fatalf("%s row %d interpreted: %v", name, i, err)
			}
			if got != want {
				t.Errorf("%s row %d: compiled = %v, interpreted = %v", name, i, got, want)
			}
			crow, code := codesOf(row), []uint32{0}
			if err := val.eval([][]uint32{crow[:1], crow[1:]}, []uint32{0}, code); err != nil {
				t.Fatalf("%s row %d value: %v", name, i, err)
			}
			if wantVal, err := ev.Eval(cond, env); err != nil || !dict.Value(code[0]).Equal(wantVal) {
				t.Errorf("%s row %d: compiled value = %v, interpreted = (%v, %v)", name, i, dict.Value(code[0]), wantVal, err)
			}
		}
	}
}
