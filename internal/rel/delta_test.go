package rel

import (
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
