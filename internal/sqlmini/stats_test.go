package sqlmini

import (
	"sync"
	"testing"
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
)

func TestQueryStatsJoinAndPushdown(t *testing.T) {
	db := newTestDB(t)
	base := db.Stats() // setup INSERTs count toward RowsProduced
	res, err := db.Query(`SELECT D.inmsg FROM D JOIN V ON D.inmsg = V.m WHERE D.dirst = 'SI' AND V.s = 'local'`)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	st.RowsProduced -= base.RowsProduced
	// Both equality conjuncts are answered from persistent indexes: the
	// scan reads only the matching bucket rows (2 from D, 2 from V).
	if st.RowsScanned != 4 {
		t.Errorf("RowsScanned = %d, want 4", st.RowsScanned)
	}
	if st.IndexScans != 2 {
		t.Errorf("IndexScans = %d, want 2", st.IndexScans)
	}
	if st.HashJoins != 1 || st.LoopJoins != 0 {
		t.Errorf("joins hash=%d loop=%d, want 1/0", st.HashJoins, st.LoopJoins)
	}
	if st.PushdownHits != 2 {
		t.Errorf("PushdownHits = %d, want 2", st.PushdownHits)
	}
	if st.RowsProduced != int64(res.NumRows()) {
		t.Errorf("RowsProduced = %d, want %d", st.RowsProduced, res.NumRows())
	}
	if st.Queries != 1 {
		t.Errorf("Queries = %d, want 1", st.Queries)
	}
	if st.EvalTime <= 0 {
		t.Errorf("EvalTime = %v, want > 0", st.EvalTime)
	}
}

// Pushdown is an optimization, not a semantics change: a pushable and a
// non-pushable phrasing of the same predicate must agree.
func TestPushdownPreservesSemantics(t *testing.T) {
	db := newTestDB(t)
	pushed, err := db.Query(`SELECT D.inmsg, V.v FROM D JOIN V ON D.inmsg = V.m WHERE D.dirst = 'MESI'`)
	if err != nil {
		t.Fatal(err)
	}
	// CASE over both sides cannot be pushed; same rows must survive.
	residual, err := db.Query(`SELECT D.inmsg, V.v FROM D JOIN V ON D.inmsg = V.m
		WHERE CASE WHEN V.m = D.inmsg THEN D.dirst ELSE NULL END = 'MESI'`)
	if err != nil {
		t.Fatal(err)
	}
	if pushed.NumRows() == 0 {
		t.Fatal("expected at least one matching row")
	}
	eq, err := pushed.EqualRows(residual)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("pushed plan:\n%s\nresidual plan:\n%s", pushed, residual)
	}
}

func TestLoopJoinCounted(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query(`SELECT * FROM D JOIN V ON D.inmsg <> V.m`); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.LoopJoins != 1 || st.HashJoins != 0 {
		t.Errorf("joins hash=%d loop=%d, want 0/1", st.HashJoins, st.LoopJoins)
	}
}

func TestStatsCountStatements(t *testing.T) {
	db := newTestDB(t)
	if err := db.ExecScript(`
		CREATE TABLE s (a, b);
		INSERT INTO s VALUES (1, 2), (3, 4);
		UPDATE s SET b = 5 WHERE a = 1;
		DELETE FROM s WHERE a = 3;
	`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	// newTestDB ran 4 statements; the script above runs 4 more.
	if st.Statements != 8 {
		t.Errorf("Statements = %d, want 8", st.Statements)
	}
	if st.Queries != 0 {
		t.Errorf("Queries = %d, want 0", st.Queries)
	}
	// UPDATE and DELETE each scan the 2-row table.
	if st.RowsScanned != 4 {
		t.Errorf("RowsScanned = %d, want 4", st.RowsScanned)
	}
}

func TestTracerEmitsStatementSpans(t *testing.T) {
	db := newTestDB(t)
	c := obs.NewCollector(16)
	db.SetTracer(c)
	if _, err := db.Query(`SELECT * FROM D WHERE dirst = 'SI'`); err != nil {
		t.Fatal(err)
	}
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "sql.stmt" {
		t.Errorf("span name %q", sp.Name)
	}
	attrs := map[string]string{}
	for _, a := range sp.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["kind"] != "SELECT" {
		t.Errorf("kind attr = %q", attrs["kind"])
	}
	if attrs["rows_scanned"] != "2" { // index scan on dirst = 'SI'
		t.Errorf("rows_scanned attr = %q", attrs["rows_scanned"])
	}
	if attrs["index_scans"] != "1" {
		t.Errorf("index_scans attr = %q", attrs["index_scans"])
	}
	if sp.End.Before(sp.Start) {
		t.Error("span never finished")
	}
}

// TestQueryLogShowsQueuedWriter: a writer waiting for the writer lock is
// in flight in phase queued while the writer holding the lock, parked in
// a registered function, has moved on; then both finish.
func TestQueryLogShowsQueuedWriter(t *testing.T) {
	db := NewDB()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.Register("park", func(args []rel.Value) (rel.Value, error) {
		once.Do(func() {
			close(parked)
			<-release
		})
		return args[0], nil
	})
	if err := db.ExecScript(`CREATE TABLE t (k, v); INSERT INTO t VALUES ('a', '1')`); err != nil {
		t.Fatal(err)
	}
	ql := obs.NewQueryLog(8, time.Hour)
	db.SetQueryLog(ql)
	errs := make(chan error, 2)
	go func() {
		_, err := db.Exec(`UPDATE t SET v = park(v)`)
		errs <- err
	}()
	<-parked
	go func() {
		_, err := db.Exec(`INSERT INTO t VALUES ('b', '2')`)
		errs <- err
	}()
	phases := map[string]string{}
	for deadline := time.Now().Add(10 * time.Second); len(phases) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight statements never reached 2: %v", phases)
		}
		inflight, _ := ql.Snapshot()
		clear(phases)
		for _, q := range inflight {
			phases[q.Kind] = q.Phase
		}
	}
	if phases["INSERT"] != "queued" || phases["UPDATE"] == "queued" {
		t.Errorf("in-flight phases %v: want the waiting INSERT queued and the UPDATE past it", phases)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if inflight, _ := ql.Snapshot(); len(inflight) != 0 {
		t.Fatalf("finished statements still in flight: %v", inflight)
	}
	if res, err := db.Query(`SELECT COUNT(*) FROM t`); err != nil || res.At(0, 0).Int() != 2 {
		t.Fatalf("t after both writers: %v, %v", res, err)
	}
}
