package rel

import (
	"errors"
	"strings"
	"testing"
)

func mkD(t *testing.T) *Table {
	t.Helper()
	d := MustNewTable("D", "inmsg", "dirst", "dirpv", "remmsg", "nxtdirst")
	d.MustInsert(S("readex"), S("I"), S("zero"), Null(), S("Busy-d"))
	d.MustInsert(S("readex"), S("SI"), S("one"), S("sinv"), S("Busy-sd"))
	d.MustInsert(S("data"), S("Busy-d"), S("zero"), Null(), S("MESI"))
	return d
}

func TestNewTableRejectsDuplicateColumns(t *testing.T) {
	_, err := NewTable("bad", "a", "b", "a")
	if !errors.Is(err, ErrDupColumn) {
		t.Fatalf("err = %v, want ErrDupColumn", err)
	}
}

func TestMustNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewTable("bad", "a", "a")
}

func TestInsertArity(t *testing.T) {
	d := MustNewTable("t", "a", "b")
	if err := d.Insert(S("x")); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v, want ErrArity", err)
	}
	if err := d.Insert(S("x"), S("y")); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 1 {
		t.Fatalf("rows = %d", d.NumRows())
	}
}

func TestGetSetAndColIndex(t *testing.T) {
	d := mkD(t)
	if d.ColIndex("dirst") != 1 || d.ColIndex("nope") != -1 {
		t.Fatal("ColIndex wrong")
	}
	if !d.HasColumn("dirpv") || d.HasColumn("ghost") {
		t.Fatal("HasColumn wrong")
	}
	if got := d.Get(1, "remmsg"); !got.Equal(S("sinv")) {
		t.Fatalf("Get = %v", got)
	}
	if got := d.Get(0, "ghost"); !got.IsNull() {
		t.Fatalf("Get unknown column = %v, want NULL", got)
	}
	if err := d.Set(0, "remmsg", S("sread")); err != nil {
		t.Fatal(err)
	}
	if got := d.Get(0, "remmsg"); !got.Equal(S("sread")) {
		t.Fatalf("after Set, Get = %v", got)
	}
	if err := d.Set(0, "ghost", Null()); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("Set unknown column err = %v", err)
	}
}

func TestRowAccessor(t *testing.T) {
	d := mkD(t)
	r := d.Row(1)
	if !r.Get("inmsg").Equal(S("readex")) || !r.Get("missing").IsNull() {
		t.Fatal("Row.Get wrong")
	}
}

// deleteWhere removes the rows pred selects through DeleteRows and
// returns the number removed.
func deleteWhere(t *Table, pred func(Row) bool) int {
	var rows []uint32
	for i := 0; i < t.NumRows(); i++ {
		if pred(t.Row(i)) {
			rows = append(rows, uint32(i))
		}
	}
	return t.DeleteRows(rows)
}

func TestDeleteWhere(t *testing.T) {
	d := mkD(t)
	n := deleteWhere(d, func(r Row) bool { return r.Get("inmsg").Equal(S("readex")) })
	if n != 2 || d.NumRows() != 1 {
		t.Fatalf("removed %d, left %d", n, d.NumRows())
	}
	if !d.Get(0, "inmsg").Equal(S("data")) {
		t.Fatal("wrong row survived")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := mkD(t)
	c := d.Clone()
	if err := c.Set(0, "dirst", S("MESI")); err != nil {
		t.Fatal(err)
	}
	if d.Get(0, "dirst").Equal(S("MESI")) {
		t.Fatal("Clone shares row storage")
	}
	if eq, err := d.EqualRows(d.Clone()); err != nil || !eq {
		t.Fatalf("clone not equal: %v %v", eq, err)
	}
}

func TestSetNameAndColumnsCopy(t *testing.T) {
	d := mkD(t)
	d.SetName("D2")
	if d.Name() != "D2" {
		t.Fatal("SetName")
	}
	cols := d.Columns()
	cols[0] = "hacked"
	if d.Columns()[0] == "hacked" {
		t.Fatal("Columns must return a copy")
	}
}

func TestStringRendering(t *testing.T) {
	d := mkD(t)
	s := d.String()
	for _, want := range []string{"inmsg", "readex", "Busy-sd", "NULL", "(3 rows)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCSVRoundTripTable(t *testing.T) {
	d := mkD(t)
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("D", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := got.EqualRows(d)
	if err != nil || !eq {
		t.Fatalf("round trip lost rows: eq=%v err=%v\n%s", eq, err, sb.String())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Fatal("empty CSV must error")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("short row must error")
	}
	if _, err := ReadCSV("x", strings.NewReader("a\n#zbad\n")); err == nil {
		t.Fatal("unknown tag must error")
	}
}
