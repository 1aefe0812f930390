package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func deltaTable(t *testing.T, name string) *Table {
	t.Helper()
	tab := MustNewTable(name, "a", "b", "c")
	tab.MustInsert(S("x"), I(1), S("p"))
	tab.MustInsert(S("y"), I(2), S("q"))
	tab.MustInsert(S("z"), I(3), S("r"))
	return tab
}

// Every mutating path must bump the revision exactly once.
func TestRevisionBumpsOnEveryMutation(t *testing.T) {
	tab := deltaTable(t, "rev")
	rev := tab.Revision()
	step := func(what string) {
		t.Helper()
		if got := tab.Revision(); got != rev+1 {
			t.Fatalf("%s: revision = %d, want %d", what, got, rev+1)
		}
		rev = tab.Revision()
	}

	tab.MustInsert(S("w"), I(4), S("s"))
	step("Insert")
	if err := tab.InsertRow([]Value{S("v"), I(5), S("t")}); err != nil {
		t.Fatal(err)
	}
	step("InsertRow")
	if err := tab.AppendColumns([][]uint32{{1, 4}, {2, 5}, {3, 6}}, 2); err != nil {
		t.Fatal(err)
	}
	step("AppendColumns, two rows")
	if err := tab.AppendColumns([][]uint32{{7}, {8}, {9}}, 1); err != nil {
		t.Fatal(err)
	}
	step("AppendColumns")
	if err := tab.Set(0, "a", S("edited")); err != nil {
		t.Fatal(err)
	}
	step("Set")
	if n := tab.ReplaceInCol("a", S("edited"), S("again")); n != 1 {
		t.Fatalf("ReplaceInCol rewrote %d cells, want 1", n)
	}
	step("ReplaceInCol")
	if n := deleteWhere(tab, func(r Row) bool { return r.Get("a").Equal(S("again")) }); n != 1 {
		t.Fatalf("DeleteRows removed %d, want 1", n)
	}
	step("DeleteRows")

	// Reads and no-op mutations must not bump.
	_ = tab.At(0, 0)
	_ = tab.ColCodes(0)
	if n := tab.ReplaceInCol("a", S("absent"), S("x")); n != 0 {
		t.Fatalf("ReplaceInCol of absent value rewrote %d", n)
	}
	if n := tab.DeleteRows(nil); n != 0 {
		t.Fatalf("no-op DeleteRows removed %d", n)
	}
	if got := tab.Revision(); got != rev {
		t.Fatalf("reads/no-ops bumped revision to %d, want %d", got, rev)
	}
}

// A snapshot must stay frozen while the source mutates, and vice versa.
func TestSnapshotCopyOnWrite(t *testing.T) {
	tab := deltaTable(t, "cow")
	snap := tab.Snapshot()
	if snap.NumRows() != 3 || snap.Revision() != tab.Revision() {
		t.Fatalf("snapshot shape: rows=%d rev=%d", snap.NumRows(), snap.Revision())
	}

	// Mutate the source: in-place edit, append, delete.
	if err := tab.Set(1, "b", I(99)); err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(S("new"), I(7), S("u"))
	if !snap.At(1, 1).Equal(I(2)) {
		t.Fatalf("snapshot saw source edit: %v", snap.At(1, 1))
	}
	if snap.NumRows() != 3 {
		t.Fatalf("snapshot saw source append: %d rows", snap.NumRows())
	}

	// Mutate the snapshot of a fresh pair: source must stay frozen.
	tab2 := deltaTable(t, "cow2")
	snap2 := tab2.Snapshot()
	if err := snap2.Set(0, "a", S("mutated")); err != nil {
		t.Fatal(err)
	}
	if !tab2.At(0, 0).Equal(S("x")) {
		t.Fatalf("source saw snapshot edit: %v", tab2.At(0, 0))
	}
}

func TestDiffCodesIdentical(t *testing.T) {
	tab := deltaTable(t, "same")
	snap := tab.Snapshot()
	d := DiffCodes(snap, tab)
	if !d.Empty() || d.Rows() != 0 {
		t.Fatalf("diff of unchanged table not empty: %+v", d)
	}
	for j, hit := range d.ColTouched {
		if hit {
			t.Fatalf("column %d touched in unchanged table", j)
		}
	}
}

func TestDiffCodesCellEdit(t *testing.T) {
	tab := deltaTable(t, "edit")
	snap := tab.Snapshot()
	if err := tab.Set(1, "b", I(42)); err != nil {
		t.Fatal(err)
	}
	d := DiffCodes(snap, tab)
	if d.Empty() || d.SchemaChanged {
		t.Fatalf("cell edit produced %+v", d)
	}
	if !d.Touches("b") || d.Touches("a") || d.Touches("c") {
		t.Fatalf("touched mask wrong: %v", d.ColTouched)
	}
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("added=%d removed=%d, want 1/1", len(d.Added), len(d.Removed))
	}
	dict := tab.Dict()
	if !dict.Value(d.Added[0][1]).Equal(I(42)) || !dict.Value(d.Removed[0][1]).Equal(I(2)) {
		t.Fatalf("delta rows wrong: added=%v removed=%v", d.Added, d.Removed)
	}
}

func TestDiffCodesInsertDelete(t *testing.T) {
	tab := deltaTable(t, "insdel")
	snap := tab.Snapshot()
	tab.MustInsert(S("w"), I(4), S("s"))
	d := DiffCodes(snap, tab)
	if len(d.Added) != 1 || len(d.Removed) != 0 {
		t.Fatalf("insert: added=%d removed=%d", len(d.Added), len(d.Removed))
	}
	if !d.Touches("a") || !d.Touches("b") || !d.Touches("c") {
		t.Fatalf("insert must touch every column: %v", d.ColTouched)
	}

	snap2 := tab.Snapshot()
	deleteWhere(tab, func(r Row) bool { return r.Get("a").Equal(S("y")) })
	d2 := DiffCodes(snap2, tab)
	if len(d2.Added) != 0 || len(d2.Removed) != 1 {
		t.Fatalf("delete: added=%d removed=%d", len(d2.Added), len(d2.Removed))
	}
	if !tab.Dict().Value(d2.Removed[0][0]).Equal(S("y")) {
		t.Fatalf("removed wrong row: %v", d2.Removed)
	}
}

func TestDiffCodesSchemaChange(t *testing.T) {
	a := MustNewTable("s", "x", "y")
	a.MustInsert(I(1), I(2))
	b := MustNewTable("s", "x", "z")
	b.MustInsert(I(1), I(3))
	d := DiffCodes(a, b)
	if !d.SchemaChanged || !d.Touches("z") || !d.Touches("anything") {
		t.Fatalf("schema change not conservative: %+v", d)
	}
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("schema change rows: added=%d removed=%d", len(d.Added), len(d.Removed))
	}
}

// Index maintenance must survive the unified bookkeeping funnel: appends
// keep cached indexes live, rewrites drop them.
func TestIndexMaintenanceThroughFunnel(t *testing.T) {
	tab := deltaTable(t, "idxfunnel")
	ix, err := tab.IndexOn("a")
	if err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(S("w"), I(4), S("s"))
	if rows := ix.Lookup(S("w")); len(rows) != 1 || rows[0] != 3 {
		t.Fatalf("index not maintained across Insert: %v", rows)
	}
	if err := tab.AppendColumns([][]uint32{{tab.Dict().Code(S("w"))}, {0}, {0}}, 1); err != nil {
		t.Fatal(err)
	}
	if rows := ix.Lookup(S("w")); len(rows) != 2 {
		t.Fatalf("index not maintained across AppendColumns: %v", rows)
	}
	if err := tab.Set(0, "a", S("q")); err != nil {
		t.Fatal(err)
	}
	ix2, err := tab.IndexOn("a")
	if err != nil {
		t.Fatal(err)
	}
	if ix2 == ix {
		t.Fatal("rewrite did not invalidate cached index")
	}
	if rows := ix2.Lookup(S("q")); len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("rebuilt index wrong: %v", rows)
	}
}

// oracleDiff is DiffCodes' rows as the row-key implementation computed
// them: with equal row counts, the old and new row at each position where
// any column differs; otherwise multisetDiff over the whole tables.
func oracleDiff(old, new *Table) (added, removed [][]uint32) {
	if old.nrows != new.nrows {
		return multisetDiff(old, new)
	}
	for i := 0; i < new.nrows; i++ {
		if !sameRow(old, i, new, i) {
			removed = append(removed, codeRows(old, []uint32{uint32(i)})...)
			added = append(added, codeRows(new, []uint32{uint32(i)})...)
		}
	}
	return added, removed
}

// multisetDiff returns the rows of new not matched in old (added) and the
// rows of old not matched in new (removed), comparing full code rows as a
// multiset through their row keys.
func multisetDiff(old, new *Table) (added, removed [][]uint32) {
	counts := make(map[string]int, old.nrows)
	for i := 0; i < old.nrows; i++ {
		counts[old.RowKey(i, nil)]++
	}
	w := len(new.cols)
	for i := 0; i < new.nrows; i++ {
		k := new.RowKey(i, nil)
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		r := make([]uint32, w)
		for j := 0; j < w; j++ {
			r[j] = new.data[j][i]
		}
		added = append(added, r)
	}
	// Whatever counts remain positive are rows only the old revision had;
	// rescan old to emit them in row order.
	for i := 0; i < old.nrows; i++ {
		k := old.RowKey(i, nil)
		if counts[k] > 0 {
			counts[k]--
			r := make([]uint32, w)
			for j := 0; j < w; j++ {
				r[j] = old.data[j][i]
			}
			removed = append(removed, r)
		}
	}
	return added, removed
}

// sortedRows renders code rows as a sorted list of strings, for comparing
// row sets as multisets.
func sortedRows(rows [][]uint32) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// keptRows returns t's rows outside the ascending positions pos, in order.
func keptRows(t *Table, pos []uint32) [][]uint32 {
	var rows []uint32
	for i, k := 0, 0; i < t.nrows; i++ {
		if k < len(pos) && pos[k] == uint32(i) {
			k++
			continue
		}
		rows = append(rows, uint32(i))
	}
	return codeRows(t, rows)
}

// checkPositions fails unless pos is strictly ascending below n.
func checkPositions(t *testing.T, what string, pos []uint32, n int) {
	t.Helper()
	for i, p := range pos {
		if int(p) >= n || (i > 0 && pos[i-1] >= p) {
			t.Fatalf("%s %v: not strictly ascending below %d", what, pos, n)
		}
	}
}

// TestDiffCodesPositionsProperty applies seeded random sequences of Set,
// AppendColumns and DeleteRows — NULL cells, duplicate rows and deletes of
// duplicates among them — and whole-table replacements, permutations
// included, and checks every DiffCodes: Added and Removed equal the row-key
// oracle's as multisets, the touched mask is the oracle's, the rows
// outside OldPos and NewPos are equal and in the same order, and MapKept
// takes every kept old row to its equal new row.
func TestDiffCodesPositionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	codes := []uint32{0, SharedDict().Code(S("a")), SharedDict().Code(S("b")), SharedDict().Code(I(7))} // 0 is NULL
	randRow := func(tab *Table) [][]uint32 {
		row := make([][]uint32, tab.NumCols())
		for j := range row {
			row[j] = []uint32{codes[rng.Intn(len(codes))]}
		}
		if tab.nrows > 0 && rng.Intn(2) == 0 { // a duplicate of a row
			src := rng.Intn(tab.nrows)
			for j := range row {
				row[j][0] = tab.data[j][src]
			}
		}
		return row
	}
	kinds := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		tab := MustNewTable("p", "x", "y", "z")
		for i := rng.Intn(12); i > 0; i-- {
			if err := tab.AppendColumns(randRow(tab), 1); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 8; step++ {
			old := tab.Snapshot()
			for e := 1 + rng.Intn(3); e > 0; e-- {
				n := tab.NumRows()
				switch op := rng.Intn(10); {
				case op < 3 && n > 0:
					j := rng.Intn(tab.NumCols())
					if err := tab.Set(rng.Intn(n), tab.cols[j], SharedDict().Value(codes[rng.Intn(len(codes))])); err != nil {
						t.Fatal(err)
					}
				case op < 6:
					if err := tab.AppendColumns(randRow(tab), 1); err != nil {
						t.Fatal(err)
					}
				case op < 8 && n > 0:
					// Delete a row with every copy of it, as a DML
					// statement matching the full row does.
					i := rng.Intn(n)
					var rows []uint32
					for r := 0; r < n; r++ {
						if sameRow(tab, r, tab, i) {
							rows = append(rows, uint32(r))
						}
					}
					tab.DeleteRows(rows)
				case op < 9 && n > 1:
					// Replace the table by a permutation of its rows,
					// sometimes with one more row.
					perm := rng.Perm(n)
					next := MustNewTable("p", tab.cols...)
					for _, i := range perm {
						row := codeRows(tab, []uint32{uint32(i)})[0]
						col := make([][]uint32, len(row))
						for j := range col {
							col[j] = row[j : j+1]
						}
						if err := next.AppendColumns(col, 1); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(2) == 0 {
						if err := next.AppendColumns(randRow(next), 1); err != nil {
							t.Fatal(err)
						}
					}
					tab = next
				default:
					tab.DeleteRows([]uint32{uint32(rng.Intn(max(n, 1)))}[:min(n, 1)])
				}
			}
			d := DiffCodes(old, tab)
			wantAdded, wantRemoved := oracleDiff(old, tab)
			if got, want := sortedRows(d.Added), sortedRows(wantAdded); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: Added %v, oracle %v", trial, step, got, want)
			}
			if got, want := sortedRows(d.Removed), sortedRows(wantRemoved); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: Removed %v, oracle %v", trial, step, got, want)
			}
			for j, hit := range d.ColTouched {
				want := old.nrows != tab.nrows
				for i := 0; i < tab.nrows && !want; i++ {
					want = old.data[j][i] != tab.data[j][i]
				}
				if hit != want {
					t.Fatalf("trial %d step %d: column %d touched=%v, want %v", trial, step, j, hit, want)
				}
			}
			checkPositions(t, "OldPos", d.OldPos, old.nrows)
			checkPositions(t, "NewPos", d.NewPos, tab.nrows)
			keptOld, keptNew := keptRows(old, d.OldPos), keptRows(tab, d.NewPos)
			if !reflect.DeepEqual(keptOld, keptNew) {
				t.Fatalf("trial %d step %d: rows outside the positions differ\nold %v (changed %v)\nnew %v (changed %v)",
					trial, step, keptOld, d.OldPos, keptNew, d.NewPos)
			}
			all := span(0, old.nrows)
			mapped := d.MapKept(all)
			if len(mapped) != len(keptOld) {
				t.Fatalf("trial %d step %d: MapKept kept %d rows, want %d", trial, step, len(mapped), len(keptOld))
			}
			if got := codeRows(tab, mapped); !reflect.DeepEqual(got, keptOld) {
				t.Fatalf("trial %d step %d: MapKept %v lands on %v, want %v", trial, step, mapped, got, keptOld)
			}
			switch {
			case old.nrows == tab.nrows:
				kinds["in place"]++
			case len(d.OldPos) == len(d.Removed) && len(d.NewPos) == len(d.Added):
				kinds["in order"]++
			default:
				kinds["middle"]++
			}
		}
	}
	for _, k := range []string{"in place", "in order", "middle"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s delta among %v: the script is vacuous", k, kinds)
		}
	}
	t.Logf("deltas by kind: %v", kinds)
}

// TestDiffCodesAppendLineage: an append-only successor reports the
// appended range without reading the old rows, while a table built apart
// with more rows is diffed row by row, whatever it holds.
func TestDiffCodesAppendLineage(t *testing.T) {
	tab := deltaTable(t, "app")
	snap := tab.Snapshot()
	tab.MustInsert(S("w"), I(4), S("s"))
	d := DiffCodes(snap, tab)
	if len(d.OldPos) != 0 || !reflect.DeepEqual(d.NewPos, []uint32{3}) || len(d.Added) != 1 || len(d.Removed) != 0 {
		t.Fatalf("append: OldPos %v NewPos %v Added %v Removed %v", d.OldPos, d.NewPos, d.Added, d.Removed)
	}
	// Built apart: its first row differs from snap's, so it is no append;
	// neither side's rows are a subsequence of the other's, so every row
	// counts as changed and only Added and Removed are matched.
	other := MustNewTable("app", "a", "b", "c")
	other.MustInsert(S("q"), I(1), S("p"))
	other.MustInsert(S("y"), I(2), S("q"))
	other.MustInsert(S("z"), I(3), S("r"))
	other.MustInsert(S("w"), I(4), S("s"))
	d = DiffCodes(snap, other)
	if !reflect.DeepEqual(d.OldPos, []uint32{0, 1, 2}) || !reflect.DeepEqual(d.NewPos, []uint32{0, 1, 2, 3}) || len(d.Added) != 2 || len(d.Removed) != 1 {
		t.Fatalf("replacement: OldPos %v NewPos %v Added %v Removed %v", d.OldPos, d.NewPos, d.Added, d.Removed)
	}
}

// TestCodeKeys checks the flat code-tuple table: dense ids in first-seen
// order, Find without inserting, and growth past the initial slot count
// with every key still found.
func TestCodeKeys(t *testing.T) {
	const n = 300
	keys := NewCodeKeys(2, 0)
	slots := len(keys.slots)
	key := func(i int) []uint32 { return []uint32{uint32(i / 16), uint32(i%16) << 20} }
	for i := 0; i < n; i++ {
		if id := keys.Find(key(i)); id != -1 {
			t.Fatalf("key %d found as %d before it was interned", i, id)
		}
		if id := keys.Intern(key(i)); id != int32(i) {
			t.Fatalf("key %d interns as %d, want %d", i, id, i)
		}
	}
	if keys.Len() != n || len(keys.slots) <= slots {
		t.Fatalf("%d ids in %d slots: want %d ids, grown past %d slots", keys.Len(), len(keys.slots), n, slots)
	}
	for i := 0; i < n; i++ {
		if id := keys.Find(key(i)); id != int32(i) {
			t.Fatalf("key %d found as %d after growth, want %d", i, id, i)
		}
	}
	if keys.Len() != n {
		t.Fatalf("Find added keys: %d ids", keys.Len())
	}
}
