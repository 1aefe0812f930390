package rel

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func pair(name string, rows ...[2]string) *Table {
	t := MustNewTable(name, "a", "b")
	for _, r := range rows {
		t.MustInsert(S(r[0]), S(r[1]))
	}
	return t
}

func TestSelect(t *testing.T) {
	d := mkD(t)
	readex := d.Select(func(r Row) bool { return r.Get("inmsg").Equal(S("readex")) })
	if readex.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", readex.NumRows())
	}
	if d.NumRows() != 3 {
		t.Fatal("Select mutated receiver")
	}
}

func TestProject(t *testing.T) {
	d := mkD(t)
	p, err := d.Project("dirst", "inmsg")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Columns(); !reflect.DeepEqual(got, []string{"dirst", "inmsg"}) {
		t.Fatalf("columns = %v", got)
	}
	if !p.Get(0, "dirst").Equal(S("I")) || !p.Get(0, "inmsg").Equal(S("readex")) {
		t.Fatal("projection reordered values incorrectly")
	}
	if _, err := d.Project("ghost"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestDistinct(t *testing.T) {
	d := pair("t", [2]string{"x", "y"}, [2]string{"x", "y"}, [2]string{"x", "z"})
	u := d.Distinct()
	if u.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", u.NumRows())
	}
	// NULL rows must also deduplicate.
	n := MustNewTable("n", "a")
	n.MustInsert(Null())
	n.MustInsert(Null())
	if n.Distinct().NumRows() != 1 {
		t.Fatal("NULL rows must collapse under Distinct")
	}
}

func TestUnionAndUnionDistinct(t *testing.T) {
	a := pair("a", [2]string{"1", "2"})
	b := pair("b", [2]string{"1", "2"}, [2]string{"3", "4"})
	u, err := a.Union(b)
	if err != nil || u.NumRows() != 3 {
		t.Fatalf("union: %v rows=%d", err, u.NumRows())
	}
	ud, err := a.UnionDistinct(b)
	if err != nil || ud.NumRows() != 2 {
		t.Fatalf("union distinct: %v rows=%d", err, ud.NumRows())
	}
	bad := MustNewTable("bad", "x")
	if _, err := a.Union(bad); !errors.Is(err, ErrSchema) {
		t.Fatalf("schema err = %v", err)
	}
}

func TestDifferenceAndIntersect(t *testing.T) {
	a := pair("a", [2]string{"1", "2"}, [2]string{"3", "4"}, [2]string{"5", "6"})
	b := pair("b", [2]string{"3", "4"})
	d, err := a.Difference(b)
	if err != nil || d.NumRows() != 2 {
		t.Fatalf("difference: %v rows=%d", err, d.NumRows())
	}
	if !d.Get(0, "a").Equal(S("1")) || !d.Get(1, "a").Equal(S("5")) {
		t.Fatal("wrong difference rows")
	}
}

func TestCross(t *testing.T) {
	a := MustNewTable("a", "x")
	a.MustInsert(S("1"))
	a.MustInsert(S("2"))
	b := MustNewTable("b", "y")
	b.MustInsert(S("p"))
	b.MustInsert(S("q"))
	b.MustInsert(S("r"))
	c, err := a.Cross(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 6 || c.NumCols() != 2 {
		t.Fatalf("cross = %dx%d", c.NumRows(), c.NumCols())
	}
	// Column collision must error.
	b2 := MustNewTable("b2", "x")
	if _, err := a.Cross(b2); !errors.Is(err, ErrDupColumn) {
		t.Fatalf("collision err = %v", err)
	}
}

func TestEquiJoin(t *testing.T) {
	v := MustNewTable("V", "m", "vc")
	v.MustInsert(S("readex"), S("VC0"))
	v.MustInsert(S("sinv"), S("VC1"))
	v.MustInsert(Null(), S("VCX")) // NULL keys never join
	d := MustNewTable("D", "inmsg", "dirst")
	d.MustInsert(S("readex"), S("SI"))
	d.MustInsert(S("wb"), S("I"))
	d.MustInsert(Null(), S("I"))
	j, err := d.EquiJoin(v, []JoinOn{{Left: "inmsg", Right: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Fatalf("join rows = %d, want 1 (NULLs must not match)", j.NumRows())
	}
	if !j.Get(0, "vc").Equal(S("VC0")) {
		t.Fatal("wrong join result")
	}
	if _, err := d.EquiJoin(v, []JoinOn{{Left: "ghost", Right: "m"}}); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.EquiJoin(v, []JoinOn{{Left: "inmsg", Right: "ghost"}}); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestEquiJoinEmptyOnIsCross(t *testing.T) {
	a := MustNewTable("a", "x")
	a.MustInsert(S("1"))
	b := MustNewTable("b", "y")
	b.MustInsert(S("2"))
	j, err := a.EquiJoin(b, nil)
	if err != nil || j.NumRows() != 1 {
		t.Fatalf("join-as-cross: %v rows=%d", err, j.NumRows())
	}
}

func TestRenameAndPrefix(t *testing.T) {
	d := mkD(t)
	r, err := d.Rename(map[string]string{"inmsg": "m"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasColumn("m") || r.HasColumn("inmsg") {
		t.Fatal("Rename failed")
	}
	// Rename into collision must error.
	if _, err := d.Rename(map[string]string{"inmsg": "dirst"}); !errors.Is(err, ErrDupColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestContainsAllAndEqualRows(t *testing.T) {
	a := pair("a", [2]string{"1", "2"}, [2]string{"3", "4"})
	b := pair("b", [2]string{"3", "4"})
	ok, err := a.ContainsAll(b)
	if err != nil || !ok {
		t.Fatalf("ContainsAll: %v %v", ok, err)
	}
	ok, err = b.ContainsAll(a)
	if err != nil || ok {
		t.Fatalf("reverse ContainsAll: %v %v", ok, err)
	}
	eq, err := a.EqualRows(b)
	if err != nil || eq {
		t.Fatalf("EqualRows: %v %v", eq, err)
	}
	// Duplicates collapse: {x,x} equals {x} as sets.
	c := pair("c", [2]string{"1", "2"}, [2]string{"1", "2"})
	d := pair("d", [2]string{"1", "2"})
	eq, err = c.EqualRows(d)
	if err != nil || !eq {
		t.Fatalf("set-equality with duplicates: %v %v", eq, err)
	}
}

func TestIndexLookup(t *testing.T) {
	d := mkD(t)
	ix, err := BuildIndex(d, "inmsg")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(S("readex")); len(got) != 2 {
		t.Fatalf("Lookup rows = %v", got)
	}
	if got := ix.Lookup(S("data")); len(got) != 1 || !d.Get(got[0], "dirst").Equal(S("Busy-d")) {
		t.Fatalf("Lookup(data) = %v", got)
	}
	if got := ix.Lookup(S("ghostmsg")); got != nil {
		t.Fatalf("missing key lookup = %v", got)
	}
	if got := ix.Lookup(S("a"), S("b")); got != nil {
		t.Fatal("wrong arity lookup must return nil")
	}
	if ix.Distinct() != 2 {
		t.Fatalf("Distinct = %d", ix.Distinct())
	}
	if _, err := BuildIndex(d, "ghost"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v", err)
	}
}

// tableGen generates small random tables with 2 columns for property tests.
type tableGen struct{ T *Table }

func (tableGen) Generate(r *rand.Rand, _ int) reflect.Value {
	t := MustNewTable("g", "a", "b")
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		t.MustInsert(randomValue(r), randomValue(r))
	}
	return reflect.ValueOf(tableGen{T: t})
}

func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(g tableGen) bool {
		d1 := g.T.Distinct()
		d2 := d1.Distinct()
		eq, err := d1.EqualRows(d2)
		return err == nil && eq && d1.NumRows() == d2.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionDistinctCommutative(t *testing.T) {
	f := func(a, b tableGen) bool {
		ab, err1 := a.T.UnionDistinct(b.T)
		ba, err2 := b.T.UnionDistinct(a.T)
		if err1 != nil || err2 != nil {
			return false
		}
		eq, err := ab.EqualRows(ba)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferenceDisjointFromSubtrahend(t *testing.T) {
	f := func(a, b tableGen) bool {
		d, err := a.T.Difference(b.T)
		if err != nil {
			return false
		}
		// Compare every pair of rows value by value, independently of
		// Difference's own hashing.
		for i := 0; i < d.NumRows(); i++ {
			for j := 0; j < b.T.NumRows(); j++ {
				if d.At(i, 0).Equal(b.T.At(j, 0)) && d.At(i, 1).Equal(b.T.At(j, 1)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrossCardinality(t *testing.T) {
	f := func(a tableGen) bool {
		b := MustNewTable("c", "c1", "c2")
		b.MustInsert(S("p"), S("q"))
		b.MustInsert(S("r"), S("s"))
		c, err := a.T.Cross(b)
		return err == nil && c.NumRows() == a.T.NumRows()*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCSVTableRoundTrip(t *testing.T) {
	f := func(g tableGen) bool {
		var sb stringsBuilder
		if err := g.T.WriteCSV(&sb); err != nil {
			return false
		}
		got, err := ReadCSV("g", sb.Reader())
		if err != nil {
			return false
		}
		// Multiset equality: same length and same set with same counts.
		if got.NumRows() != g.T.NumRows() {
			return false
		}
		eq, err := got.EqualRows(g.T)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
