package sqlmini

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"coherdb/internal/rel"
)

// subDB copies db with table name cut down to its rows at the ascending
// positions rows: the definition of a seeded execution's input.
func subDB(t *testing.T, db *DB, name string, rows []uint32) *DB {
	t.Helper()
	out := NewDB()
	for _, n := range db.Names() {
		tab := db.MustTable(n)
		if n == name {
			cut := rel.MustNewTable(n, tab.Columns()...)
			cols := make([][]uint32, tab.NumCols())
			for j := range cols {
				for _, r := range rows {
					cols[j] = append(cols[j], tab.CodeAt(int(r), j))
				}
			}
			if err := cut.AppendColumns(cols, len(rows)); err != nil {
				t.Fatal(err)
			}
			tab = cut
		}
		out.PutTable(tab)
	}
	return out
}

// sameRun fails unless two executions agree: both failed with the same
// text, or both returned tables that render equal in row order.
func sameRun(t *testing.T, what string, got, want *Result, gerr, werr error) {
	t.Helper()
	if (gerr != nil) != (werr != nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, want %v", what, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if g, w := tableResult(got.Table, nil).render(true), tableResult(want.Table, nil).render(true); g != w {
		t.Fatalf("%s:\n%s\nwant\n%s", what, g, w)
	}
}

// TestSeededMatchesSubtable checks seeded execution against its
// definition on generated single-table SELECTs without JOIN, UNION,
// DISTINCT, ORDER BY and LIMIT, selections and grouped ones, over
// NULL-heavy tables: ExecSeeded over a random seed — empty, partial or
// every row — returns, in both dialects and in a session overlay, the
// table and error the statement returns over a copy of its base table
// holding only the seed rows, and positions that are that run's positions
// taken through the seed. Over every row it reproduces ExecStatsDialect,
// positions and base version included. A seed of another version of the
// table, and statements of any other shape, refuse to run seeded.
func TestSeededMatchesSubtable(t *testing.T) {
	seeds, n := int64(24), 30
	if testing.Short() || raceEnabled {
		seeds = 6
	}
	var grouped, selections, refused, nonEmpty int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := oracleDB(t, rng)
		sess := db.NewSession()
		if _, err := sess.Exec(`CREATE TABLE t1 AS SELECT * FROM t1`); err != nil {
			t.Fatal(err)
		}
		g := &stmtGen{rng: rng}
		for i := 0; i < n; {
			sql := g.statement()
			st, err := ParseStatement(sql)
			if err != nil {
				t.Fatalf("generated %q does not parse: %v", sql, err)
			}
			p, err := db.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			sel := st.(*SelectStmt)
			if !positional(sel) {
				if _, _, err := p.ExecSeeded(true, rel.Version{}, nil); !errors.Is(err, ErrNotPositional) {
					t.Fatalf("%s: seeded run of a statement of another shape: %v", sql, err)
				}
				refused++
				continue
			}
			i++
			if sh, ok := ShapeOf(st); ok && sh.GroupBy != nil {
				grouped++
			} else if ok {
				selections++
			}
			name := sel.From[0].Name
			base := db.MustTable(name)
			var rows []uint32
			keep := rng.Intn(3) // 0: no row, 1: some rows, 2: every row
			for r := 0; r < base.NumRows(); r++ {
				if keep == 2 || (keep == 1 && rng.Intn(2) == 0) {
					rows = append(rows, uint32(r))
				}
			}
			sub := subDB(t, db, name, rows)
			sp, err := sub.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			sessP, err := sess.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, strict := range []bool{false, true} {
				want, _, werr := sp.ExecStatsDialect(strict)
				for _, way := range []struct {
					name string
					p    *Prepared
					view interface {
						Table(string) (*rel.Table, bool)
					}
				}{{"db", p, db}, {"session", sessP, sess}} {
					what := sql + " (" + way.name + ")"
					tab, _ := way.view.Table(name)
					got, qs, gerr := way.p.ExecSeeded(strict, tab.Version(), rows)
					sameRun(t, what, got, want, gerr, werr)
					if gerr != nil {
						continue
					}
					if _, _, err := way.p.ExecSeeded(strict, tab.Snapshot().Version(), rows); !errors.Is(err, ErrStaleSeed) {
						t.Fatalf("%s: seeded run from another version of the table: %v", what, err)
					}
					if qs.RowsScanned != len(rows) {
						t.Fatalf("%s: scanned %d rows of a %d-row seed", what, qs.RowsScanned, len(rows))
					}
					if got.Base != tab.Version() {
						t.Fatalf("%s: result names another table version", what)
					}
					if (got.Positions == nil) != (want.Positions == nil) {
						t.Fatalf("%s: positions %v, want %v through %v", what, got.Positions, want.Positions, rows)
					}
					for k, q := range want.Positions {
						if got.Positions[k] != rows[q] {
							t.Fatalf("%s: positions %v, want %v through %v", what, got.Positions, want.Positions, rows)
						}
					}
					if got.Table.NumRows() > 0 {
						nonEmpty++
					}
				}
				if len(rows) == base.NumRows() {
					full, _, ferr := p.ExecStatsDialect(strict)
					all, _, aerr := p.ExecSeeded(strict, base.Version(), rows)
					sameRun(t, sql+" (every row)", all, full, aerr, ferr)
					if ferr == nil && (!slices.Equal(all.Positions, full.Positions) || all.Base != full.Base) {
						t.Fatalf("%s: positions over every row %v, full run %v", sql, all.Positions, full.Positions)
					}
				}
			}
		}
		sess.Close()
	}
	t.Logf("%d selections, %d grouped, %d non-empty seeded results; %d statements of other shapes refused", selections, grouped, nonEmpty, refused)
	if selections == 0 || grouped == 0 || refused == 0 || nonEmpty == 0 {
		t.Fatal("a statement kind never occurred: the test is vacuous")
	}
}

// TestShapeOf pins the classification the incremental re-check seeds by.
func TestShapeOf(t *testing.T) {
	for _, tc := range []struct {
		sql   string
		ok    bool
		group []string
	}{
		{`SELECT a, b FROM t1 WHERE a = 'x' AND NOT b = 1`, true, nil},
		{`SELECT * FROM t1`, true, nil},
		{`SELECT a, COUNT(*) AS n FROM t1 GROUP BY a, t1.b HAVING COUNT(*) > 1`, true, []string{"a", "b"}},
		{`SELECT a FROM t1 q GROUP BY q.a`, true, []string{"a"}},
		{`SELECT a FROM t1 GROUP BY t2.a`, false, nil},
		{`SELECT COUNT(*) FROM t1`, false, nil},
		{`SELECT a FROM t1 HAVING COUNT(*) > 1`, false, nil},
		{`SELECT a FROM t1 GROUP BY lower(a)`, false, nil},
		{`SELECT DISTINCT a FROM t1`, false, nil},
		{`SELECT a FROM t1 ORDER BY a`, false, nil},
		{`SELECT a FROM t1 LIMIT 1`, false, nil},
		{`SELECT a FROM t1 UNION SELECT a FROM t2`, false, nil},
		{`SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a`, false, nil},
		{`SELECT t1.a FROM t1, t2`, false, nil},
		{`DELETE FROM t1 WHERE a = 1`, false, nil},
	} {
		st, err := ParseStatement(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		sh, ok := ShapeOf(st)
		if ok != tc.ok || (ok && (sh.Table != "t1" || !slices.Equal(sh.GroupBy, tc.group))) {
			t.Fatalf("%s: shape %+v, %v; want table t1 grouped by %v, %v", tc.sql, sh, ok, tc.group, tc.ok)
		}
	}
}
