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
// from the same column.
func sqlEdit(rng *rand.Rand, db *sqlmini.DB, names []string) string {
	name := names[rng.Intn(len(names))]
	tab := db.MustTable(name)
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
