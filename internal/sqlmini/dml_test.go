package sqlmini

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// tableDigest renders a table's column names and code vectors. Codes
// name values injectively in the shared dictionary, so equal digests
// mean equal tables, row order included.
func tableDigest(t *rel.Table) string {
	cols := make([][]uint32, t.NumCols())
	for j := range cols {
		cols[j] = t.ColCodes(j)
	}
	return fmt.Sprint(t.ColumnsRef(), t.NumRows(), cols)
}

// rowCodes returns row i of t as dictionary codes.
func rowCodes(t *rel.Table, i int) []uint32 {
	row := make([]uint32, t.NumCols())
	for j := range row {
		row[j] = t.CodeAt(i, j)
	}
	return row
}

// boomOnB is a partial function: it errors on 'b' and maps anything
// else to 'Z'.
func boomOnB(args []rel.Value) (rel.Value, error) {
	if len(args) == 1 && args[0].Equal(rel.S("b")) {
		return rel.Null(), errors.New("boom on b")
	}
	return rel.S("Z"), nil
}

// rowOracleUpdate is the row-at-a-time UPDATE the executor ran before
// DML selected its rows on the scan kernels: the tree-walker decides the
// WHERE on each row in turn, then evaluates and assigns that row's SET
// list. It returns the numbers of the rows it updated. Like the old
// executor it writes rows before a later row's error, so callers run it
// on a copy.
func rowOracleUpdate(ev *Evaluator, t *rel.Table, s *UpdateStmt) ([]int, error) {
	var sel []int
	for i := 0; i < t.NumRows(); i++ {
		env := rowEnv{t: t, i: i}
		if s.Where != nil {
			ok, err := ev.True(s.Where, env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		vals := make([]rel.Value, len(s.Exprs))
		for k, e := range s.Exprs {
			v, err := ev.Eval(e, env)
			if err != nil {
				return nil, err
			}
			vals[k] = v
		}
		for k, c := range s.Cols {
			if err := t.Set(i, c, vals[k]); err != nil {
				return nil, err
			}
		}
		sel = append(sel, i)
	}
	return sel, nil
}

// rowOracleDelete is the row-at-a-time DELETE the executor ran before:
// the tree-walker decides each row, and the first error stops the
// selection (the rows selected before it are still removed). It returns
// the numbers the removed rows had.
func rowOracleDelete(ev *Evaluator, t *rel.Table, s *DeleteStmt) ([]int, error) {
	var sel []int
	var rows []uint32
	var evalErr error
	for i := 0; i < t.NumRows(); i++ {
		if s.Where != nil {
			ok, err := ev.True(s.Where, rowEnv{t: t, i: i})
			if err != nil {
				evalErr = err
				break
			}
			if !ok {
				continue
			}
		}
		sel = append(sel, i)
		rows = append(rows, uint32(i))
	}
	t.DeleteRows(rows)
	return sel, evalErr
}

// rowOracle runs stmt, an UPDATE or DELETE, through the matching oracle.
func rowOracle(ev *Evaluator, t *rel.Table, stmt Stmt) ([]int, error) {
	switch s := stmt.(type) {
	case *UpdateStmt:
		return rowOracleUpdate(ev, t, s)
	case *DeleteStmt:
		return rowOracleDelete(ev, t, s)
	}
	panic(fmt.Sprintf("rowOracle: %T", stmt))
}

// dmlCase is one generated input of TestDMLMatchesRowOracle: a table's
// columns and rows, and a WHERE rendered to SQL.
type dmlCase struct {
	cols  []string
	rows  [][]rel.Value
	where string
	set   string // an UPDATE's SET list; "" for a DELETE
}

func (c dmlCase) stmt() string {
	w := ""
	if c.where != "" {
		w = " WHERE " + c.where
	}
	if c.set == "" {
		return "DELETE FROM t" + w
	}
	return "UPDATE t SET " + c.set + w
}

// newDMLCase draws a NULL-heavy table of up to maxRows rows and a WHERE
// from the differential fuzzer's generators: randExpr over a, b and
// dirst, or randBoundExpr's kernel-shaped trees over c0..c2, rendered to
// SQL so the statement binds its columns by name (a tree SQL cannot
// spell, such as an empty IN list, is drawn again). Both generators call
// only total functions.
func newDMLCase(rng *rand.Rand, maxRows int) dmlCase {
	c := dmlCase{cols: []string{"a", "b", "dirst"}}
	values := fuzzValues
	tree := func() Expr { return randExpr(rng, 1+rng.Intn(3)) }
	if rng.Intn(2) == 1 {
		c.cols = []string{"c0", "c1", "c2"}
		values = vecTestValues
		tree = func() Expr { return randBoundExpr(rng, len(c.cols), rng.Intn(3)) }
	}
	gen := func() string {
		for {
			src := tree().String()
			if _, err := ParseExpr(src); err == nil {
				return src
			}
		}
	}
	for n := rng.Intn(maxRows + 1); n > 0; n-- {
		row := make([]rel.Value, len(c.cols))
		for j := range row {
			row[j] = rel.Null()
			if rng.Intn(3) != 0 {
				row[j] = values[rng.Intn(len(values))]
			}
		}
		c.rows = append(c.rows, row)
	}
	if rng.Intn(20) != 0 {
		conj := make([]string, 1+rng.Intn(3))
		for i := range conj {
			conj[i] = gen()
		}
		c.where = strings.Join(conj, " AND ")
	}
	switch rng.Intn(4) {
	case 0:
		// DELETE
	case 1:
		c.set = c.cols[rng.Intn(3)] + " = 'hit'"
	case 2:
		c.set = fmt.Sprintf("%s = %s, %s = %s", c.cols[0], c.cols[1], c.cols[1], c.cols[0])
	default:
		c.set = c.cols[rng.Intn(3)] + " = " + gen()
	}
	return c
}

// load builds the case's table t in a fresh DB with the fuzzer's
// function registered.
func (c dmlCase) load(t *testing.T, strict bool) *DB {
	t.Helper()
	db := NewDB()
	db.Register("f", fuzzFuncs["f"])
	db.SetStrictNulls(strict)
	tab := rel.MustNewTable("t", c.cols...)
	for _, row := range c.rows {
		tab.MustInsert(row...)
	}
	db.PutTable(tab)
	return db
}

// execer is the statement entry point of a DB or a Session.
type execer interface {
	Exec(src string) (*Result, error)
	Table(name string) (*rel.Table, bool)
}

// checkDMLAgainstOracle runs the case's statement through x and the row
// oracle on a copy of the table x sees, and checks that the results
// agree: the error or success, Affected, the resulting table, and that
// the selected rows are the rows of SELECT * FROM t WHERE w.
func checkDMLAgainstOracle(t *testing.T, x execer, strict bool, c dmlCase) {
	t.Helper()
	orig, _ := x.Table("t")
	orig = orig.Clone()
	stmt, err := ParseStatement(c.stmt())
	if err != nil {
		t.Fatalf("%s: %v", c.stmt(), err)
	}
	ev := &Evaluator{Funcs: fuzzFuncs, NullEq: !strict}
	want := orig.Clone()
	wantSel, wantErr := rowOracle(ev, want, stmt)

	q := "SELECT * FROM t"
	if c.where != "" {
		q += " WHERE " + c.where
	}
	sel, selErr := x.Exec(q)

	res, err := x.Exec(c.stmt())
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s (strict=%v): err %v, oracle %v", c.stmt(), strict, err, wantErr)
	}
	if err != nil {
		return
	}
	if res.Affected != len(wantSel) {
		t.Fatalf("%s (strict=%v): Affected %d, oracle %d", c.stmt(), strict, res.Affected, len(wantSel))
	}
	got, _ := x.Table("t")
	if tableDigest(got) != tableDigest(want) {
		t.Fatalf("%s (strict=%v): table\n%v\noracle\n%v", c.stmt(), strict, got, want)
	}
	if selErr != nil {
		t.Fatalf("%s (strict=%v): %v", q, strict, selErr)
	}
	wantRows := make([][]uint32, len(wantSel))
	for k, i := range wantSel {
		wantRows[k] = rowCodes(orig, i)
	}
	gotRows := make([][]uint32, sel.Table.NumRows())
	for i := range gotRows {
		gotRows[i] = rowCodes(sel.Table, i)
	}
	if g, w := fmt.Sprint(gotRows), fmt.Sprint(wantRows); g != w {
		t.Fatalf("%s (strict=%v): SELECT rows %s, oracle selected %s", q, strict, g, w)
	}
}

// TestDMLMatchesRowOracle checks UPDATE and DELETE, which select their
// rows on the scan kernels and apply afterwards, against the
// row-at-a-time loops they replaced, over random NULL-heavy tables and
// random WHEREs, in both NULL dialects, on the shared path and on a
// session's overlay. Every eighth case lowers the morsel size so the
// selection runs in parallel batches.
func TestDMLMatchesRowOracle(t *testing.T) {
	trials := 400
	if testing.Short() || raceEnabled {
		trials = 120
	}
	rng := rand.New(rand.NewSource(20))
	morselCases := 0
	for trial := 0; trial < trials; trial++ {
		maxRows := 40
		parallel := trial%8 == 0
		if parallel || trial%4 == 1 {
			maxRows = 300
		}
		c := newDMLCase(rng, maxRows)
		strict := trial%2 == 1
		for _, session := range []bool{false, true} {
			db := c.load(t, strict)
			if parallel {
				db.SetPool(pool.New(4))
				db.SetMorselSize(16)
				if len(c.rows) >= 32 {
					morselCases++
				}
			}
			var x execer = db
			if session {
				s := db.NewSession()
				if _, err := s.Exec("CREATE TABLE t AS SELECT * FROM t"); err != nil {
					t.Fatal(err)
				}
				x = s
			}
			checkDMLAgainstOracle(t, x, strict, c)
		}
	}
	if morselCases == 0 {
		t.Fatal("no case spanned two morsels")
	}
}

// TestDMLWhereEvaluatesLikeSelect pins the one observable change of
// selecting DML rows the way a SELECT scan does: a conjunct is no longer
// evaluated on a row that another conjunct already rejected, where
// rejected includes unknown, and a column = literal conjunct rejects
// first, as SELECT's index lookup does. The row oracle raised boom's
// error in both cases; the statements now succeed on exactly SELECT's
// rows.
func TestDMLWhereEvaluatesLikeSelect(t *testing.T) {
	for _, tc := range []struct {
		strict bool
		where  string
	}{
		{true, "v = 'x' AND boom(k) = 'Z'"},  // v = 'x' is unknown on row b
		{false, "boom(k) = 'Z' AND k = 'a'"}, // k = 'a' runs first, as an index probe would
	} {
		for _, stmt := range []string{"DELETE FROM t WHERE " + tc.where, "UPDATE t SET v = 'y' WHERE " + tc.where} {
			db := NewDB()
			db.Register("boom", boomOnB)
			db.SetStrictNulls(tc.strict)
			if err := db.ExecScript(`CREATE TABLE t (k, v); INSERT INTO t VALUES ('a', 'x'), ('b', NULL)`); err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseStatement(stmt)
			if err != nil {
				t.Fatal(err)
			}
			ev := &Evaluator{Funcs: map[string]Func{"boom": boomOnB}, NullEq: !tc.strict}
			if _, err := rowOracle(ev, db.MustTable("t").Clone(), parsed); err == nil {
				t.Fatalf("%s: the row oracle no longer errors; the case is vacuous", stmt)
			}
			sel, err := db.Query("SELECT * FROM t WHERE " + tc.where)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s (strict=%v): %v", stmt, tc.strict, err)
			}
			if res.Affected != 1 || sel.NumRows() != 1 {
				t.Fatalf("%s (strict=%v): Affected %d, SELECT %d rows; want 1 and 1", stmt, tc.strict, res.Affected, sel.NumRows())
			}
		}
	}
}

// TestDMLErrorsMatchSelect: a WHERE fails UPDATE and DELETE exactly when
// it fails SELECT, with SELECT's error text: a column or function that
// does not resolve, a partial function reached by a row, and — succeeding
// — a partial function in a conjunct that reads no column, which no row
// reaches once k = 'zz' has rejected them all.
func TestDMLErrorsMatchSelect(t *testing.T) {
	db := NewDB()
	db.Register("boom", boomOnB)
	if err := db.ExecScript(`CREATE TABLE t (k, v); INSERT INTO t VALUES ('a', 'x'), ('b', NULL)`); err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		"nosuch = 1", "u.k = 'a'", "nofn(k) = 1", "k = 'a' AND nofn(k) = 1", "boom(k) = 'Z'",
		"boom('b') = 'Z'", "k = 'zz' AND boom('b') = 'Z'",
	} {
		_, want := db.Query("SELECT * FROM t WHERE " + where)
		for _, stmt := range []string{"DELETE FROM t WHERE " + where, "UPDATE t SET v = 'y' WHERE " + where} {
			_, err := db.Exec(stmt)
			if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
				t.Errorf("%s: err %v, SELECT's %v", stmt, err, want)
			}
		}
	}
}

// TestSessionDMLAtomic: a DML statement that errors changes nothing,
// neither on the shared catalog nor on a session's overlay table, which
// DML writes in place. Every value is evaluated before the first cell
// changes.
func TestSessionDMLAtomic(t *testing.T) {
	for _, stmt := range []string{
		"UPDATE t SET v = boom(k)",
		"DELETE FROM t WHERE boom(k) = 'Z'",
		"INSERT INTO t VALUES ('x', '1'), ('y', boom('b'))",
	} {
		for _, session := range []bool{false, true} {
			db := NewDB()
			db.Register("boom", boomOnB)
			if err := db.ExecScript(`CREATE TABLE t (k, v); INSERT INTO t VALUES ('a', '1'), ('b', '2')`); err != nil {
				t.Fatal(err)
			}
			var x execer = db
			if session {
				s := db.NewSession()
				if _, err := s.Exec("CREATE TABLE t AS SELECT * FROM t"); err != nil {
					t.Fatal(err)
				}
				x = s
			}
			before, _ := x.Table("t")
			digest, rev := tableDigest(before), before.Revision()
			if _, err := x.Exec(stmt); err == nil || !strings.Contains(err.Error(), "boom on b") {
				t.Fatalf("%s (session=%v): err %v, want boom on b", stmt, session, err)
			}
			after, _ := x.Table("t")
			if tableDigest(after) != digest || after.Revision() != rev {
				t.Fatalf("%s (session=%v) failed but changed t (revision %d -> %d):\n%v", stmt, session, rev, after.Revision(), after)
			}
		}
	}
}

// indexDump renders every bucket of ix, an index over cols of t — each
// distinct key among t's rows with the row numbers the index holds for
// it — and the index's key count, so an index with a stale or extra
// bucket dumps differently from BuildIndex over the same table.
func indexDump(t *rel.Table, ix *rel.Index, cols []string) string {
	var pos []int
	for _, c := range cols {
		pos = append(pos, t.ColIndex(c))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d keys\n", ix.Distinct())
	seen := make(map[string]bool)
	for i := 0; i < t.NumRows(); i++ {
		codes := make([]uint32, len(pos))
		for k, j := range pos {
			codes[k] = t.CodeAt(i, j)
		}
		key := fmt.Sprint(codes)
		if !seen[key] {
			seen[key] = true
			fmt.Fprintf(&b, "%s -> %v\n", key, ix.LookupCodes(codes...))
		}
	}
	return b.String()
}

// indexDumps renders every cached index of t.
func indexDumps(t *testing.T, tab *rel.Table) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, cols := range tab.IndexedColumns() {
		ix, err := tab.IndexOn(cols...)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.Join(cols, ",")] = indexDump(tab, ix, cols)
	}
	return out
}

// checkIndexesMatchRebuild fails unless every cached index of tab equals
// BuildIndex over tab, bucket for bucket.
func checkIndexesMatchRebuild(t *testing.T, what string, tab *rel.Table) {
	t.Helper()
	for key, got := range indexDumps(t, tab) {
		cols := strings.Split(key, ",")
		fresh, err := rel.BuildIndex(tab, cols...)
		if err != nil {
			t.Fatal(err)
		}
		if want := indexDump(tab, fresh, cols); got != want {
			t.Fatalf("%s: index (%s)\n%s\nBuildIndex\n%s", what, key, got, want)
		}
	}
}

// TestCarriedIndexesMatchRebuild runs random UPDATE, DELETE and INSERT
// statements through DB.Exec on a table holding IndexOn indexes. After
// every publish the new epoch holds the same indexes, each equal to
// BuildIndex over the published table (whether it was carried, extended
// or rebuilt), and the previous epoch's indexes are unchanged. Finally
// an insert into either of two epochs that share an index leaves the
// other's unchanged.
func TestCarriedIndexesMatchRebuild(t *testing.T) {
	db := NewDB()
	cols := []string{"a", "b", "c", "d"}
	vals := []string{"'p'", "'q'", "'r'", "NULL", "1"}
	rng := rand.New(rand.NewSource(21))
	randRow := func() string {
		row := make([]string, len(cols))
		for j := range row {
			row[j] = vals[rng.Intn(len(vals))]
		}
		return "(" + strings.Join(row, ", ") + ")"
	}
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, randRow())
	}
	if err := db.ExecScript("CREATE TABLE T (a, b, c, d); INSERT INTO T VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	indexed := [][]string{{"a"}, {"a", "b"}, {"c"}}
	for _, ic := range indexed {
		if _, err := db.MustTable("T").IndexOn(ic...); err != nil {
			t.Fatal(err)
		}
	}
	wantSets := fmt.Sprint(db.MustTable("T").IndexedColumns())

	randWhere := func() string {
		conj := make([]string, 1+rng.Intn(2))
		for i := range conj {
			conj[i] = cols[rng.Intn(len(cols))] + " = " + vals[rng.Intn(len(vals))]
		}
		return strings.Join(conj, " AND ")
	}
	for e := 0; e < 300; e++ {
		var stmt string
		switch op := rng.Intn(10); {
		case op < 6:
			stmt = fmt.Sprintf("UPDATE T SET %s = %s WHERE %s", cols[rng.Intn(len(cols))], vals[rng.Intn(len(vals))], randWhere())
		case op < 8:
			stmt = "INSERT INTO T VALUES " + randRow()
		default:
			stmt = "DELETE FROM T WHERE " + randWhere()
		}
		prev := db.MustTable("T")
		prevDumps := indexDumps(t, prev)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		cur := db.MustTable("T")
		if fmt.Sprint(indexDumps(t, prev)) != fmt.Sprint(prevDumps) {
			t.Fatalf("%s changed the previous epoch's indexes", stmt)
		}
		if cur == prev {
			continue // nothing matched: no epoch
		}
		if got := fmt.Sprint(cur.IndexedColumns()); got != wantSets {
			t.Fatalf("%s: published indexes %s, want %s", stmt, got, wantSets)
		}
		checkIndexesMatchRebuild(t, stmt, cur)
	}

	// An UPDATE of the unindexed column d carries every index as it is;
	// the two epochs then share buckets until one of them is extended.
	prev := db.MustTable("T")
	if _, err := db.Exec("UPDATE T SET d = 'new'"); err != nil {
		t.Fatal(err)
	}
	cur := db.MustTable("T")
	prevDumps, curDumps := indexDumps(t, prev), indexDumps(t, cur)
	cur.MustInsert(rel.S("p"), rel.S("q"), rel.S("r"), rel.Null())
	checkIndexesMatchRebuild(t, "insert into the new epoch", cur)
	if fmt.Sprint(indexDumps(t, prev)) != fmt.Sprint(prevDumps) {
		t.Fatal("an insert into the new epoch changed the previous epoch's indexes")
	}
	curDumps = indexDumps(t, cur)
	prev.MustInsert(rel.S("p"), rel.S("p"), rel.S("p"), rel.S("p"))
	checkIndexesMatchRebuild(t, "insert into the previous epoch", prev)
	if fmt.Sprint(indexDumps(t, cur)) != fmt.Sprint(curDumps) {
		t.Fatal("an insert into the previous epoch changed the new epoch's indexes")
	}
}
