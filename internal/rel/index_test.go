package rel

import (
	"errors"
	"strings"
	"testing"
)

func TestBuildIndexErrorsNameColumnAndTable(t *testing.T) {
	d := mkD(t)
	_, err := BuildIndex(d)
	if err == nil || !strings.Contains(err.Error(), `"D"`) {
		t.Fatalf("empty column list: err = %v, want mention of table D", err)
	}
	_, err = BuildIndex(d, "inmsg", "dirst", "inmsg")
	if !errors.Is(err, ErrDupColumn) {
		t.Fatalf("duplicate column: err = %v, want ErrDupColumn", err)
	}
	if !strings.Contains(err.Error(), `"inmsg"`) || !strings.Contains(err.Error(), `"D"`) {
		t.Fatalf("duplicate column error %q must name the column and the table", err)
	}
	_, err = BuildIndex(d, "inmsg", "ghost")
	if !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("missing column: err = %v, want ErrUnknownColumn", err)
	}
	if !strings.Contains(err.Error(), `"ghost"`) || !strings.Contains(err.Error(), `"D"`) {
		t.Fatalf("missing column error %q must name the column and the table", err)
	}
}

func TestIndexLookupRowsBoundsAndArity(t *testing.T) {
	d := mkD(t)
	ix, err := BuildIndex(d, "inmsg", "dirst")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong arity never panics and never matches.
	if got := ix.Lookup(S("readex")); len(got) != 0 {
		t.Fatalf("under-arity Lookup = %v, want empty", got)
	}
	if got := ix.Lookup(S("readex"), S("I"), S("extra")); len(got) != 0 {
		t.Fatalf("over-arity Lookup = %v, want empty", got)
	}
	if got := ix.Lookup(); len(got) != 0 {
		t.Fatalf("zero-arity Lookup = %v, want empty", got)
	}
	// Exact arity resolves to the right rows.
	got := ix.Lookup(S("readex"), S("SI"))
	if len(got) != 1 || !d.Get(got[0], "remmsg").Equal(S("sinv")) {
		t.Fatalf("Lookup(readex, SI) = %v", got)
	}
	if got := ix.Lookup(S("readex"), S("nope")); len(got) != 0 {
		t.Fatalf("missing key Lookup = %v, want empty", got)
	}
}

func TestIndexOnCachesAndMaintainsInserts(t *testing.T) {
	d := mkD(t)
	ix, err := d.IndexOn("inmsg")
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.IndexOn("inmsg")
	if err != nil {
		t.Fatal(err)
	}
	if ix != again {
		t.Fatal("IndexOn must return the cached index on the second call")
	}
	if got := ix.Lookup(S("readex")); len(got) != 2 {
		t.Fatalf("Lookup(readex) = %v rows, want 2", got)
	}
	// Inserts are folded into the live index.
	d.MustInsert(S("readex"), S("MESI"), S("two"), S("minv"), S("I"))
	if got := ix.Lookup(S("readex")); len(got) != 3 {
		t.Fatalf("after insert, Lookup(readex) = %v rows, want 3", got)
	}
	if err := d.InsertRow([]Value{S("wb"), S("MESI"), S("two"), Null(), S("I")}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(S("wb")); len(got) != 1 {
		t.Fatalf("after InsertRow, Lookup(wb) = %v rows, want 1", got)
	}
}

func TestIndexOnInvalidatedByMutation(t *testing.T) {
	mutations := []struct {
		name string
		do   func(t *testing.T, d *Table)
	}{
		{"Set", func(t *testing.T, d *Table) {
			if err := d.Set(0, "inmsg", S("data")); err != nil {
				t.Fatal(err)
			}
		}},
		{"DeleteWhere", func(t *testing.T, d *Table) {
			if n := deleteWhere(d, func(r Row) bool { return r.Get("inmsg").Equal(S("readex")) }); n != 2 {
				t.Fatalf("DeleteWhere removed %d rows, want 2", n)
			}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			d := mkD(t)
			stale, err := d.IndexOn("inmsg")
			if err != nil {
				t.Fatal(err)
			}
			m.do(t, d)
			fresh, err := d.IndexOn("inmsg")
			if err != nil {
				t.Fatal(err)
			}
			if fresh == stale {
				t.Fatalf("%s must drop the cached index", m.name)
			}
			// The rebuilt index agrees with a scan for every current row.
			for i := 0; i < d.NumRows(); i++ {
				v := d.Get(i, "inmsg")
				found := false
				for _, ri := range fresh.Lookup(v) {
					if ri == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("row %d (%s) missing from rebuilt index", i, v)
				}
			}
		})
	}
}

func TestIndexOnErrorNotCached(t *testing.T) {
	d := mkD(t)
	if _, err := d.IndexOn("ghost"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v, want ErrUnknownColumn", err)
	}
	if _, err := d.IndexOn("inmsg", "inmsg"); !errors.Is(err, ErrDupColumn) {
		t.Fatalf("err = %v, want ErrDupColumn", err)
	}
	if _, err := d.IndexOn("inmsg"); err != nil {
		t.Fatalf("valid IndexOn after failures: %v", err)
	}
}

// TestIndexLookupCodesAllocatesNothing pins the index nested-loop join's
// probe: the key is built on the stack, so a probe, hit or miss, makes
// no allocation.
func TestIndexLookupCodesAllocatesNothing(t *testing.T) {
	d := mkD(t)
	ix, err := BuildIndex(d, "inmsg", "dirst")
	if err != nil {
		t.Fatal(err)
	}
	hit := []uint32{d.CodeAt(0, d.ColIndex("inmsg")), d.CodeAt(0, d.ColIndex("dirst"))}
	miss := []uint32{hit[0], NullCode}
	if len(ix.LookupCodes(hit...)) == 0 {
		t.Fatal("probe with row 0's key matches nothing")
	}
	for _, probe := range [][]uint32{hit, miss} {
		if got := testing.AllocsPerRun(100, func() { ix.LookupCodes(probe...) }); got != 0 {
			t.Errorf("LookupCodes(%v) allocates %.1f per probe, want 0", probe, got)
		}
	}
}
