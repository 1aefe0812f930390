package hwmap

import (
	"errors"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

func TestControllerEquivalence(t *testing.T) {
	// C5: the split request/response controller built from the nine
	// implementation tables behaves exactly like the extended table on
	// every input.
	_, m := mapping(t)
	if err := m.VerifyEquivalence(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerLookupRoutes(t *testing.T) {
	_, m := mapping(t)
	ctrl, err := NewController(m)
	if err != nil {
		t.Fatal(err)
	}
	// A request row: readex at SI with free queues.
	ed := m.Extended
	var key []uint32
	for i := 0; i < ed.NumRows(); i++ {
		if ed.Get(i, "inmsg").Equal(rel.S("readex")) &&
			ed.Get(i, "dirst").Equal(rel.S("SI")) &&
			ed.Get(i, ColQstatus).Equal(rel.S(NotFull)) {
			for _, c := range InputColumns() {
				key = append(key, ed.CodeAt(i, ed.ColIndex(c)))
			}
			break
		}
	}
	if key == nil {
		t.Fatal("no readex@SI row in ED")
	}
	out, ok := ctrl.Lookup(key)
	if !ok {
		t.Fatal("lookup missed")
	}
	if !ctrl.Output(out, "remmsg").Equal(rel.S("sinv")) || !ctrl.Output(out, "memmsg").Equal(rel.S("mread")) {
		t.Fatalf("outputs = %v", out)
	}
	// An unknown input combination misses: a dirst value no cell holds.
	key[8] = rel.NoCode
	if _, ok := ctrl.Lookup(key); ok {
		t.Fatal("phantom lookup")
	}
}

func TestVerifyEquivalenceDetectsCorruption(t *testing.T) {
	_, m := mapping(t)
	tab := m.Tables[2] // Request_memmsg
	clone := tab.Clone()
	seeded := false
	for i := 0; i < clone.NumRows() && !seeded; i++ {
		if clone.Get(i, "memmsg").Equal(rel.S("mread")) {
			if err := clone.Set(i, "memmsg", rel.S("mwrite")); err != nil {
				t.Fatal(err)
			}
			seeded = true
		}
	}
	if !seeded {
		t.Fatal("nothing to corrupt")
	}
	m.Tables[2] = clone
	defer func() { m.Tables[2] = tab }()
	if err := m.VerifyEquivalence(); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v, want ErrBroken", err)
	}
}

// TestVerifyEquivalenceDetectsMissingRow drops one Dqstatus=Full row from
// Response_locmsg. Its ED row still matches the other response tables,
// and the ED row before it (the Dqstatus=NotFull twin) has the same
// locmsg outputs, so the check must not read the previous row's outputs
// where the table no longer answers.
func TestVerifyEquivalenceDetectsMissingRow(t *testing.T) {
	_, m := mapping(t)
	tab := m.Tables[5] // Response_locmsg
	clone := tab.Clone()
	dropped := false
	for i := 0; i < clone.NumRows() && !dropped; i++ {
		if clone.Get(i, ColDqstatus).Equal(rel.S(Full)) && !clone.Get(i, "locmsg").IsNull() {
			clone.DeleteRows([]uint32{uint32(i)})
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("no Dqstatus=Full row with a locmsg")
	}
	m.Tables[5] = clone
	defer func() { m.Tables[5] = tab }()
	if err := m.VerifyEquivalence(); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v, want ErrBroken", err)
	}
}

func TestNewControllerRejectsNondeterminism(t *testing.T) {
	_, m := mapping(t)
	tab := m.Tables[0]
	clone := tab.Clone()
	// Duplicate the first row with a different output: same inputs, two
	// behaviours.
	row := rowOf(clone, 0)
	j := clone.ColIndex("locmsg")
	if row[j].Equal(rel.S("retry")) {
		row[j] = rel.S("nack")
	} else {
		row[j] = rel.S("retry")
	}
	if err := clone.InsertRow(row); err != nil {
		t.Fatal(err)
	}
	m.Tables[0] = clone
	defer func() { m.Tables[0] = tab }()
	if _, err := NewController(m); err == nil {
		t.Fatal("nondeterministic table accepted")
	}
}

// TestGeneratedTablesBucketAlike pins the facts that make bucketing the
// first input by code, rather than by Str(), change no generated
// behaviour: none of the eight controllers, ED or the nine implementation
// tables holds an S("") cell or a non-string cell, and none has a NULL
// first input cell.
func TestGeneratedTablesBucketAlike(t *testing.T) {
	db := sqlmini.NewDB()
	if _, err := protocol.GenerateAllOpts(db, constraint.Options{}); err != nil {
		t.Fatal(err)
	}
	type table struct {
		tab   *rel.Table
		first string
	}
	var tables []table
	for _, sb := range protocol.SpecBuilders() {
		spec, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, table{db.MustTable(sb.Name), spec.InputNames()[0]})
	}
	m, err := Partition(sqlmini.NewDB(), db.MustTable(protocol.DirectoryTable))
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range append([]*rel.Table{m.Extended}, m.Tables...) {
		tables = append(tables, table{tab, edInputCols[0]})
	}
	if len(tables) != 18 {
		t.Fatalf("%d tables, want 18", len(tables))
	}
	for _, tt := range tables {
		tab := tt.tab
		for i := 0; i < tab.NumRows(); i++ {
			for j, col := range tab.ColumnsRef() {
				v := tab.At(i, j)
				if !v.IsNull() && (v.Kind() != rel.KindString || v.Str() == "") {
					t.Fatalf("%s row %d column %s holds %#v", tab.Name(), i, col, v)
				}
			}
			if tab.Get(i, tt.first).IsNull() {
				t.Fatalf("%s row %d: NULL first input %s", tab.Name(), i, tt.first)
			}
		}
	}
}
