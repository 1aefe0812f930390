package check

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// renderResults canonicalizes a run for byte-for-byte comparison:
// invariant name, error, and the violation rows — everything except
// timing, stats, and the Skipped marker.
func renderResults(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "== %s ==\n", r.Invariant.Name)
		if r.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", r.Err)
			continue
		}
		if r.Violations == nil {
			b.WriteString("<nil>\n")
			continue
		}
		if err := r.Violations.WriteCSV(&b); err != nil {
			fmt.Fprintf(&b, "render error: %v\n", err)
		}
	}
	return b.String()
}

// cloneCatalog builds a fresh DB holding deep copies of src's tables plus
// the protocol predicates, so edit chains cannot leak into the shared
// package fixture.
func cloneCatalog(src *sqlmini.DB) *sqlmini.DB {
	db := sqlmini.NewDB()
	protocol.RegisterFuncs(db.Register)
	for _, name := range src.Names() {
		if t, ok := src.Table(name); ok {
			db.PutTable(t.Clone())
		}
	}
	return db
}

// applyEdit mutates tab with one random row edit: a cell overwrite (70%),
// a near-duplicate row insert (15%), or a row delete (15%). Values are
// drawn from the same column so edits stay schema-plausible.
func applyEdit(rng *rand.Rand, tab *rel.Table) error {
	n := tab.NumRows()
	w := tab.NumCols()
	op := rng.Intn(100)
	switch {
	case n == 0 || (op >= 70 && op < 85):
		if n == 0 {
			return nil
		}
		row := make([][]uint32, w) // one row, column-major
		src := rng.Intn(n)
		for j := 0; j < w; j++ {
			row[j] = []uint32{tab.CodeAt(src, j)}
		}
		row[rng.Intn(w)][0] = tab.CodeAt(rng.Intn(n), rng.Intn(w))
		return tab.AppendColumns(row, 1)
	case op >= 85 && n > 2:
		tab.DeleteRows([]uint32{uint32(rng.Intn(n))})
		return nil
	default:
		i, j := rng.Intn(n), rng.Intn(w)
		return tab.Set(i, tab.ColumnsRef()[j], tab.At(rng.Intn(n), j))
	}
}

// TestEditScriptEquivalence is the randomized incremental-vs-monolithic
// gate: for every controller table it applies a seeded script of random
// row edits, chains RunDelta across the whole script, and periodically
// asserts the chained incremental results render byte-identical to a
// from-scratch Run of the same database state. Chains cover both NULL
// dialects and both serial and pooled execution; the full 200-edit scripts
// also run under -race via scripts/bench.sh.
func TestEditScriptEquivalence(t *testing.T) {
	base := protocolDB(t)
	controllers := []string{
		protocol.DirectoryTable, protocol.MemoryTable, protocol.CacheTable,
		protocol.NodeTable, protocol.RACTable, protocol.IOBridgeTable,
		protocol.InterruptTable, protocol.SyncTable,
	}

	edits := 200
	checkEvery := 40
	if testing.Short() {
		edits, checkEvery = 25, 10
	} else if raceEnabled {
		checkEvery = 50
	}

	for i, ctrl := range controllers {
		strict := i%2 == 0
		workers := 1
		if i%4 >= 2 {
			workers = 0 // shared pool
		}
		t.Run(fmt.Sprintf("%s/strict=%v/workers=%d", ctrl, strict, workers), func(t *testing.T) {
			db := cloneCatalog(base)
			db.SetStrictNulls(strict)
			suite := ProtocolSuite()
			opts := Options{Workers: workers}

			rev := db.BeginRevision()
			prev := suite.Run(db, opts)
			tab := db.MustTable(ctrl)
			rng := rand.New(rand.NewSource(int64(7919 + 31*i)))

			skippedTotal, recheckedTotal := 0, 0
			for e := 1; e <= edits; e++ {
				if err := applyEdit(rng, tab); err != nil {
					t.Fatalf("edit %d: %v", e, err)
				}
				d := rev.Commit()
				prev = suite.RunDelta(db, prev, d, opts)
				for _, r := range prev {
					if r.Skipped {
						skippedTotal++
					} else {
						recheckedTotal++
					}
				}
				if e%checkEvery == 0 || e == edits {
					full := suite.Run(db, opts)
					if got, want := renderResults(prev), renderResults(full); got != want {
						t.Fatalf("edit %d: incremental diverged from full rebuild\n--- incremental ---\n%s\n--- full ---\n%s",
							e, got, want)
					}
				}
			}
			if skippedTotal == 0 {
				t.Fatal("no invariant was ever delta-skipped: the incremental path is vacuous")
			}
			if recheckedTotal == 0 {
				t.Fatal("no invariant was ever re-checked: the edit script is vacuous")
			}
		})
	}
}

// sqlEdit draws one SQL edit of a random table, of the kind the
// edit-recheck benchmark replays: a one-cell UPDATE matched on the full
// row (70%), a near-duplicate INSERT (15%), or a DELETE matched on the
// full row (15%) when that leaves at least two rows. New values come
// from the same column. Tables are read as db sees them.
func sqlEdit(rng *rand.Rand, db DBLike, names []string) string {
	name := names[rng.Intn(len(names))]
	tab, _ := db.Table(name)
	n, w := tab.NumRows(), tab.NumCols()
	op := rng.Intn(100)
	switch {
	case op >= 70 && op < 85:
		src := rng.Intn(n)
		vals := make([]string, w)
		for j := range vals {
			vals[j] = tab.At(src, j).Quoted()
		}
		k := rng.Intn(w)
		vals[k] = tab.At(rng.Intn(n), k).Quoted()
		return fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, strings.Join(vals, ", "))
	case op >= 85 && n > 2:
		if i := rng.Intn(n); n-copiesOf(tab, i) >= 2 {
			return fmt.Sprintf("DELETE FROM %s WHERE %s", name, rowMatch(tab, i))
		}
	}
	i, j := rng.Intn(n), rng.Intn(w)
	v := tab.At(rng.Intn(n), j)
	return fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", name, tab.ColumnsRef()[j], v.Quoted(), rowMatch(tab, i))
}

// copiesOf counts the rows of tab equal to row i, itself included.
func copiesOf(tab *rel.Table, i int) int {
	n := 0
	for r := 0; r < tab.NumRows(); r++ {
		same := true
		for j := 0; j < tab.NumCols() && same; j++ {
			same = tab.CodeAt(r, j) == tab.CodeAt(i, j)
		}
		if same {
			n++
		}
	}
	return n
}

// rowMatch renders a WHERE clause matching row i on every column.
func rowMatch(tab *rel.Table, i int) string {
	conds := make([]string, tab.NumCols())
	for j, c := range tab.ColumnsRef() {
		if v := tab.At(i, j); v.IsNull() {
			conds[j] = c + " IS NULL"
		} else {
			conds[j] = c + " = " + v.Quoted()
		}
	}
	return strings.Join(conds, " AND ")
}

// TestSQLEditScriptEquivalence is TestEditScriptEquivalence over SQL, as
// the edit-recheck benchmark and the server edit: seeded sqlEdit
// statements go through DB.Exec, or through a Session whose overlay
// shadows D, in both NULL dialects, and every RunDelta is compared with a
// full Run of the same state. Scripted edits among them create and then
// clear a violation of a selection invariant (dir-bdir-exclusive, by
// UPDATE and by INSERT then DELETE) and of deterministic-D (a second row
// of one input combination, cleared by UPDATE and by DELETE). The test
// fails unless some re-check read fewer rows than a full run of the same
// invariant, so the row-level path cannot go untested.
func TestSQLEditScriptEquivalence(t *testing.T) {
	base := protocolDB(t)
	names := []string{
		protocol.DirectoryTable, protocol.MemoryTable, protocol.CacheTable,
		protocol.NodeTable, protocol.RACTable, protocol.IOBridgeTable,
		protocol.InterruptTable, protocol.SyncTable,
	}
	edits := 120
	if testing.Short() || raceEnabled {
		edits = 40
	}
	fewer := 0 // re-checks that read fewer rows than a full run
	for k, strict := range []bool{true, false} {
		for _, session := range []bool{false, true} {
			t.Run(fmt.Sprintf("strict=%v/session=%v", strict, session), func(t *testing.T) {
				db := cloneCatalog(base)
				db.SetStrictNulls(strict)
				var view DBLike = db
				exec, rev := db.Exec, db.BeginRevision()
				if session {
					sess := db.NewSession()
					defer sess.Close()
					if _, err := sess.Exec("CREATE TABLE D AS SELECT * FROM D"); err != nil {
						t.Fatal(err)
					}
					view, exec, rev = sess, sess.Exec, sess.BeginRevision()
				}
				suite := ProtocolSuite()
				opts := Options{Workers: k}
				prev := suite.Run(view, opts)
				rng := rand.New(rand.NewSource(int64(2029 + k)))
				violated := map[string]int{}
				step := func(e int, stmt string) {
					t.Helper()
					if _, err := exec(stmt); err != nil {
						t.Fatalf("edit %d %q: %v", e, stmt, err)
					}
					prev = suite.RunDelta(view, prev, rev.Commit(), opts)
					full := suite.Run(view, opts)
					if got, want := renderResults(prev), renderResults(full); got != want {
						t.Fatalf("edit %d %q: incremental diverged from a full run\n--- incremental ---\n%s\n--- full ---\n%s", e, stmt, got, want)
					}
					fewer += readFewer(prev, full)
				}
				// expectViolated fails unless the named invariant reports
				// violations now.
				expectViolated := func(e int, name string) {
					t.Helper()
					for _, r := range prev {
						if r.Invariant.Name == name {
							if r.Passed() {
								t.Fatalf("edit %d: %s holds after an edit meant to violate it", e, name)
							}
							violated[name]++
						}
					}
				}
				for e := 1; e <= edits; e++ {
					if e%10 != 0 {
						step(e, sqlEdit(rng, view, names))
						continue
					}
					d, _ := view.Table(protocol.DirectoryTable)
					i := rng.Intn(d.NumRows())
					for d.At(i, d.ColIndex("dirst")).Equal(rel.S("I")) || d.At(i, d.ColIndex("dirst")).IsNull() {
						i = (i + 1) % d.NumRows()
					}
					switch e / 10 % 4 {
					case 1: // selection: UPDATE a row into violation and back
						old := d.At(i, d.ColIndex("bdirst"))
						step(e, fmt.Sprintf("UPDATE D SET bdirst = 'Busy-rx-d' WHERE %s", rowMatch(d, i)))
						expectViolated(e, "dir-bdir-exclusive")
						d, _ = view.Table(protocol.DirectoryTable)
						step(e, fmt.Sprintf("UPDATE D SET bdirst = %s WHERE %s", old.Quoted(), rowMatch(d, i)))
					case 2: // selection: INSERT a violating row, then DELETE it
						stmt, match := copyRow(d, i, "bdirst", rel.S("Busy-rx-d"))
						step(e, stmt)
						expectViolated(e, "dir-bdir-exclusive")
						step(e, "DELETE FROM D WHERE "+match)
					case 3: // grouped: a second row of an input combination, cleared by UPDATE
						stmt, match := copyRow(d, i, "nxtdirst", rel.S("edited"))
						step(e, stmt)
						expectViolated(e, "deterministic-D")
						step(e, "UPDATE D SET inmsgsrc = 'elsewhere' WHERE "+match)
					default: // grouped: the same, cleared by DELETE
						stmt, match := copyRow(d, i, "nxtdirst", rel.S("edited"))
						step(e, stmt)
						expectViolated(e, "deterministic-D")
						step(e, "DELETE FROM D WHERE "+match)
					}
				}
				if violated["dir-bdir-exclusive"] == 0 || violated["deterministic-D"] == 0 {
					t.Fatalf("scripted violations seen: %v", violated)
				}
			})
		}
	}
	if fewer == 0 {
		t.Fatal("no re-check read fewer rows than a full run: the row-level path is untested")
	}
	t.Logf("%d re-checks read fewer rows than a full run", fewer)
}

// TestProtocolSuiteRunsSeeded: every protocol invariant has a shape whose
// touched re-check runs seeded — 57 selections and the 4 determinism
// checks — so no edit of the protocol tables re-runs one in full.
func TestProtocolSuiteRunsSeeded(t *testing.T) {
	suite := ProtocolSuite()
	_, shapes := suite.deps()
	selections, grouped := 0, 0
	for i, sh := range shapes {
		switch {
		case sh == nil:
			t.Errorf("%s re-runs in full on every touched re-check", suite.invs[i].Name)
		case sh.GroupBy == nil:
			selections++
		default:
			grouped++
		}
	}
	if selections != 57 || grouped != 4 {
		t.Fatalf("%d selections and %d grouped checks, want 57 and 4", selections, grouped)
	}
}

// readFewer counts the results of prev that ran and read fewer base rows
// than full's result of the same invariant: the re-checks that ran
// seeded.
func readFewer(prev, full []Result) int {
	n := 0
	for i, r := range prev {
		if !r.Skipped && r.Stats != nil && r.rowsRead() < full[i].rowsRead() {
			n++
		}
	}
	return n
}

// copyRow renders an INSERT of row i of tab with column col set to v, and
// a WHERE clause matching the inserted row on every column.
func copyRow(tab *rel.Table, i int, col string, v rel.Value) (insert, match string) {
	vals := make([]string, tab.NumCols())
	conds := make([]string, tab.NumCols())
	for j, c := range tab.ColumnsRef() {
		cell := tab.At(i, j)
		if c == col {
			cell = v
		}
		vals[j] = cell.Quoted()
		if cell.IsNull() {
			conds[j] = c + " IS NULL"
		} else {
			conds[j] = c + " = " + cell.Quoted()
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", tab.Name(), strings.Join(vals, ", ")), strings.Join(conds, " AND ")
}

// TestSeededRecheckMatchesRun covers seeded re-checks on shapes the
// protocol suite lacks: a HAVING that a removed row can make true, an
// output column read from a group's first row, NULL group keys, and
// statements that are not positional. Revisions of one to three random
// SQL statements, which may match many rows, edit a small NULL-heavy
// table in both NULL dialects, and every RunDelta must render as a full
// Run of the same state does.
func TestSeededRecheckMatchesRun(t *testing.T) {
	suite := NewSuite()
	for i, sql := range []string{
		`SELECT * FROM t WHERE a = 'x' OR c > 2`,
		`SELECT a, b FROM t WHERE b IS NULL AND NOT a = 'y'`,
		`SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b HAVING COUNT(*) > 1`,
		`SELECT a, c, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) = 1`,
		`SELECT b, MIN(c) AS lo FROM t GROUP BY b HAVING MAX(c) < 3`,
		`SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 9`,
		`SELECT DISTINCT a FROM t WHERE c = 1`,
	} {
		suite.Add(Invariant{Name: fmt.Sprintf("inv%d", i), Desc: sql, Ref: "test", SQL: sql})
	}
	vals := map[string][]string{
		"a": {"'x'", "'y'", "'z'", "NULL"},
		"b": {"'p'", "'q'", "NULL"},
		"c": {"1", "2", "3", "NULL"},
	}
	cols := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(29))
	pick := func(col string) string { return vals[col][rng.Intn(len(vals[col]))] }
	cond := func() string {
		col := cols[rng.Intn(len(cols))]
		if v := pick(col); v != "NULL" {
			return col + " = " + v
		}
		return col + " IS NULL"
	}
	row := func() string { return fmt.Sprintf("(%s, %s, %s)", pick("a"), pick("b"), pick("c")) }
	revisions := 300
	if testing.Short() || raceEnabled {
		revisions = 100
	}
	seeded := 0 // re-checks that read fewer rows than a full run
	for _, strict := range []bool{true, false} {
		db := sqlmini.NewDB()
		db.SetStrictNulls(strict)
		init := "CREATE TABLE t (a, b, c); INSERT INTO t VALUES " + row()
		for i := 0; i < 11; i++ {
			init += ", " + row()
		}
		for _, stmt := range strings.Split(init, "; ") {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		rev := db.BeginRevision()
		prev := suite.Run(db, Options{})
		for e := 0; e < revisions; e++ {
			var stmts []string
			for k := 1 + rng.Intn(3); k > 0; k-- {
				tab := db.MustTable("t")
				switch op := rng.Intn(10); {
				case op < 4:
					col := cols[rng.Intn(len(cols))]
					stmts = append(stmts, fmt.Sprintf("UPDATE t SET %s = %s WHERE %s", col, pick(col), cond()))
				case op < 7 || tab.NumRows() < 6:
					stmts = append(stmts, "INSERT INTO t VALUES "+row())
				default:
					stmts = append(stmts, "DELETE FROM t WHERE "+cond())
				}
				if _, err := db.Exec(stmts[len(stmts)-1]); err != nil {
					t.Fatalf("revision %d %q: %v", e, stmts, err)
				}
			}
			prev = suite.RunDelta(db, prev, rev.Commit(), Options{})
			full := suite.Run(db, Options{})
			if got, want := renderResults(prev), renderResults(full); got != want {
				t.Fatalf("strict=%v revision %d %q: incremental diverged from a full run\n--- incremental ---\n%s\n--- full ---\n%s",
					strict, e, stmts, got, want)
			}
			seeded += readFewer(prev, full)
		}
	}
	if seeded == 0 {
		t.Fatal("no re-check read fewer rows than a full run: the seeded path is untested")
	}
	t.Logf("%d seeded re-checks", seeded)
}

// TestRecheckUnderConcurrentWriter re-checks a session's edits of a shared
// table while another writer edits the same table between the session's
// Commit and its queries: right after the Commit, or from inside the
// re-check, once the seeds are taken (a function the first invariant
// calls runs the write). Each such re-check is followed by a quiet one,
// whose delta holds the other writer's edit, and which must render as a
// full Run does. A result computed at another version of the table than
// its delta starts from must not be seeded from: positions of one version
// mapped through the delta of another lose violations for good.
func TestRecheckUnderConcurrentWriter(t *testing.T) {
	db := sqlmini.NewDB()
	var pending string // the other writer's next statement
	db.Register("interfere", func(args []rel.Value) (rel.Value, error) {
		if stmt := pending; stmt != "" {
			pending = ""
			if _, err := db.Exec(stmt); err != nil {
				return rel.Null(), err
			}
		}
		return rel.B(false), nil
	})
	suite := NewSuite()
	for i, sql := range []string{
		`SELECT * FROM u WHERE interfere(k)`,
		`SELECT * FROM t WHERE a = 'x' OR c > 2`,
		`SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b HAVING COUNT(*) > 1`,
	} {
		suite.Add(Invariant{Name: fmt.Sprintf("inv%d", i), Desc: sql, Ref: "test", SQL: sql})
	}
	vals := map[string][]string{
		"a": {"'x'", "'y'", "'z'"},
		"b": {"'p'", "'q'", "NULL"},
		"c": {"1", "2", "3"},
	}
	cols := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(31))
	pick := func(col string) string { return vals[col][rng.Intn(len(vals[col]))] }
	row := func() string { return fmt.Sprintf("(%s, %s, %s)", pick("a"), pick("b"), pick("c")) }
	edit := func() string {
		col := cols[rng.Intn(len(cols))]
		cond := fmt.Sprintf("%s = %s AND %s = %s", cols[0], pick(cols[0]), cols[2], pick(cols[2]))
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("UPDATE t SET %s = %s WHERE %s", col, pick(col), cond)
		case 1:
			return "INSERT INTO t VALUES " + row()
		default:
			return "DELETE FROM t WHERE " + cond
		}
	}
	init := "CREATE TABLE t (a, b, c); CREATE TABLE u (k); INSERT INTO u VALUES (0); INSERT INTO t VALUES " + row()
	for i := 0; i < 15; i++ {
		init += ", " + row()
	}
	for _, stmt := range strings.Split(init, "; ") {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	revisions := 200
	if testing.Short() || raceEnabled {
		revisions = 60
	}
	sess := db.NewSession()
	defer sess.Close()
	opts := Options{Workers: 1} // the writer's invariant runs first
	rev := sess.BeginRevision()
	prev := suite.Run(sess, opts)
	seeded := 0
	for e := 0; e < revisions; e++ {
		mine := []string{edit(), fmt.Sprintf("UPDATE u SET k = %d", e+1)}
		for _, stmt := range mine {
			if _, err := sess.Exec(stmt); err != nil {
				t.Fatalf("revision %d %q: %v", e, stmt, err)
			}
		}
		d := rev.Commit()
		other := edit()
		if e%2 == 0 {
			if _, err := db.Exec(other); err != nil {
				t.Fatalf("revision %d %q: %v", e, other, err)
			}
		} else {
			pending = other
		}
		prev = suite.RunDelta(sess, prev, d, opts)
		if pending != "" {
			t.Fatalf("revision %d: the other writer's statement did not run", e)
		}
		prev = suite.RunDelta(sess, prev, rev.Commit(), opts)
		full := suite.Run(sess, opts)
		if got, want := renderResults(prev), renderResults(full); got != want {
			t.Fatalf("revision %d: %q, then %q by another writer: the re-check after diverged from a full run\n--- incremental ---\n%s\n--- full ---\n%s",
				e, mine, other, got, want)
		}
		seeded += readFewer(prev, full)
	}
	if seeded == 0 {
		t.Fatal("no re-check read fewer rows than a full run: the seeded path is untested")
	}
	t.Logf("%d seeded re-checks", seeded)
}

// indexSets renders the column lists of every table's cached indexes.
func indexSets(db *sqlmini.DB) string {
	var b strings.Builder
	for _, name := range db.Names() {
		fmt.Fprintf(&b, "%s: %v\n", name, db.MustTable(name).IndexedColumns())
	}
	return b.String()
}

// TestDMLBuildsNoIndex: UPDATE and DELETE select their rows without an
// index, and every publish carries, extends or rebuilds the indexes the
// table already held, so after 1,000 seeded edits each table holds
// exactly the indexes the invariant suite built. The edits are not
// re-checked in between: the executor's joins choose which side's index
// to probe by row count, so a re-check of edited tables may rightly ask
// for an index the first run did not.
func TestDMLBuildsNoIndex(t *testing.T) {
	db := cloneCatalog(protocolDB(t))
	ProtocolSuite().Run(db, Options{})
	want := indexSets(db)
	if len(db.MustTable(protocol.DirectoryTable).IndexedColumns()) == 0 {
		t.Fatal("the invariant suite built no index on D; the test is vacuous")
	}
	names := []string{
		protocol.DirectoryTable, protocol.MemoryTable, protocol.CacheTable,
		protocol.NodeTable, protocol.RACTable, protocol.IOBridgeTable,
		protocol.InterruptTable, protocol.SyncTable,
	}
	edits := 1000
	if testing.Short() || raceEnabled {
		edits = 300
	}
	rng := rand.New(rand.NewSource(1105))
	for e := 1; e <= edits; e++ {
		stmt := sqlEdit(rng, db, names)
		res, err := db.Exec(stmt)
		if err != nil || res.Affected < 1 {
			t.Fatalf("edit %d %q: affected %v, err %v", e, stmt, res, err)
		}
	}
	if got := indexSets(db); got != want {
		t.Fatalf("after %d edits the tables hold indexes\n%s\nthe invariant suite built\n%s", edits, got, want)
	}
}
