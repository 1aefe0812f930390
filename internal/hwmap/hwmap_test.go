package hwmap

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

var (
	dOnce sync.Once
	dTab  *rel.Table
	dErr  error
)

func directoryTable(t testing.TB) *rel.Table {
	t.Helper()
	dOnce.Do(func() {
		spec, err := protocol.SpecBuilders()[0].Build() // D
		if err != nil {
			dErr = err
			return
		}
		dTab, _, dErr = constraint.Solve(spec)
	})
	if dErr != nil {
		t.Fatal(dErr)
	}
	return dTab
}

func mapping(t testing.TB) (*sqlmini.DB, *Mapping) {
	t.Helper()
	db := sqlmini.NewDB()
	m, err := Partition(db, directoryTable(t))
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

func TestBuildExtendedShape(t *testing.T) {
	d := directoryTable(t)
	ed, err := BuildExtended(d)
	if err != nil {
		t.Fatal(err)
	}
	if ed.NumCols() != d.NumCols()+3 {
		t.Fatalf("ED has %d columns, want %d", ed.NumCols(), d.NumCols()+3)
	}
	// Every D row splits in two (a queue-status pair), plus the two
	// Dfdback rows.
	if ed.NumRows() != 2*d.NumRows()+2 {
		t.Fatalf("ED has %d rows, want %d", ed.NumRows(), 2*d.NumRows()+2)
	}
}

func TestExtendedRetryOnFullQueues(t *testing.T) {
	d := directoryTable(t)
	ed, err := BuildExtended(d)
	if err != nil {
		t.Fatal(err)
	}
	full := ed.Select(func(r rel.Row) bool {
		return r.Get(ColQstatus).Equal(rel.S(Full)) && !r.Get("inmsg").Equal(rel.S("Dfdback"))
	})
	if full.Empty() {
		t.Fatal("no Qstatus=Full rows")
	}
	for i := 0; i < full.NumRows(); i++ {
		if !full.Get(i, "locmsg").Equal(rel.S("retry")) {
			t.Fatalf("Qstatus=Full row %d does not retry: %v", i, rowOf(full, i))
		}
		if !full.Get(i, "remmsg").IsNull() || !full.Get(i, "memmsg").IsNull() ||
			!full.Get(i, "nxtbdirst").IsNull() {
			t.Fatalf("Qstatus=Full row %d has side effects", i)
		}
	}
}

func TestExtendedFeedbackOnFullUpdateQueue(t *testing.T) {
	d := directoryTable(t)
	ed, err := BuildExtended(d)
	if err != nil {
		t.Fatal(err)
	}
	// Responses that needed a directory update and found the update queue
	// full must defer it via Dfdback.
	deferred := ed.Select(func(r rel.Row) bool {
		return r.Get(ColDqstatus).Equal(rel.S(Full)) && r.Get(ColFdback).Equal(rel.S("Dfdback"))
	})
	if deferred.Empty() {
		t.Fatal("no deferred-update rows")
	}
	for i := 0; i < deferred.NumRows(); i++ {
		if !deferred.Get(i, "dirupd").IsNull() {
			t.Fatalf("deferred row %d still updates the directory", i)
		}
		// Busy bookkeeping and messages still proceed.
		if deferred.Get(i, "bdirupd").IsNull() && deferred.Get(i, "locmsg").IsNull() &&
			deferred.Get(i, "memmsg").IsNull() {
			t.Fatalf("deferred row %d does nothing else: %v", i, rowOf(deferred, i))
		}
	}
	// The Dfdback replay row exists and performs an update.
	replay := ed.Select(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("Dfdback")) && r.Get(ColQstatus).Equal(rel.S(NotFull))
	})
	if replay.NumRows() != 1 || !replay.Get(0, "dirupd").Equal(rel.S("upd")) {
		t.Fatalf("Dfdback replay row wrong:\n%s", replay)
	}
	// And the requeue row re-feeds itself when the queues are full.
	requeue := ed.Select(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("Dfdback")) && r.Get(ColQstatus).Equal(rel.S(Full))
	})
	if requeue.NumRows() != 1 || !requeue.Get(0, ColFdback).Equal(rel.S("Dfdback")) {
		t.Fatalf("Dfdback requeue row wrong:\n%s", requeue)
	}
}

func TestBuildExtendedRejectsWrongSchema(t *testing.T) {
	bad := rel.MustNewTable("X", "a", "b")
	if _, err := BuildExtended(bad); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("err = %v", err)
	}
}

func TestNineImplementationTables(t *testing.T) {
	// F5/C5: nine implementation tables are generated for D.
	db, m := mapping(t)
	if len(m.Tables) != 9 {
		t.Fatalf("implementation tables = %d, want 9", len(m.Tables))
	}
	names := ImplementationTableNames()
	if len(names) != 9 {
		t.Fatalf("names = %v", names)
	}
	for i, tab := range m.Tables {
		if tab.Empty() {
			t.Fatalf("%s is empty", names[i])
		}
		if _, ok := db.Table(names[i]); !ok {
			t.Fatalf("%s not installed in the database", names[i])
		}
	}
	// Request tables hold exactly the request rows (incl. Dfdback).
	reqRows := m.Extended.Select(func(r rel.Row) bool {
		return protocol.IsRequest(r.Get("inmsg").Str())
	}).NumRows()
	if got := m.Tables[0].NumRows(); got != reqRows {
		t.Fatalf("Request_locmsg rows = %d, want %d", got, reqRows)
	}
}

func TestReconstructionPreservesD(t *testing.T) {
	// C5: the paper's explicit check — ED is reconstructible from the
	// nine implementation tables.
	_, m := mapping(t)
	rec, err := m.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Empty() {
		t.Fatal("reconstruction empty")
	}
	// And the reconstruction agrees with ED exactly (both directions).
	proj, err := m.Extended.Project(rec.Columns()...)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := rec.Distinct().EqualRows(proj.SetName(rec.Name()).Distinct())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("reconstruction differs from ED")
	}
}

func TestVerifyDetectsBrokenMapping(t *testing.T) {
	_, m := mapping(t)
	// Corrupt one implementation table: drop a row.
	tab := m.Tables[2]
	clone := tab.Clone()
	var mread []uint32
	for i := 0; i < clone.NumRows(); i++ {
		if clone.Get(i, "memmsg").Equal(rel.S("mread")) {
			mread = append(mread, uint32(i))
		}
	}
	clone.DeleteRows(mread)
	m.Tables[2] = clone
	if _, err := m.Verify(); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v, want ErrBroken", err)
	}
	m.Tables[2] = tab
	if _, err := m.Verify(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
}

func TestVerifyDetectsCorruptedOutput(t *testing.T) {
	_, m := mapping(t)
	tab := m.Tables[1] // Request_remmsg
	clone := tab.Clone()
	seeded := false
	for i := 0; i < clone.NumRows() && !seeded; i++ {
		if clone.Get(i, "remmsg").Equal(rel.S("sinv")) {
			if err := clone.Set(i, "remmsg", rel.S("sread")); err != nil {
				t.Fatal(err)
			}
			seeded = true
		}
	}
	if !seeded {
		t.Fatal("no sinv row found")
	}
	m.Tables[1] = clone
	if _, err := m.Verify(); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v, want ErrBroken", err)
	}
}

func TestGenerateGo(t *testing.T) {
	_, m := mapping(t)
	var sb strings.Builder
	if err := GenerateGo(&sb, "dctrl", m); err != nil {
		t.Fatal(err)
	}
	GenerateGoKeyHelper(&sb)
	src := sb.String()
	for _, want := range []string{
		"package dctrl",
		"type Inputs struct",
		"func Request_remmsg(in Inputs)",
		"func Response_bdir(in Inputs)",
		"func key(in Inputs) string",
		`"sinv"`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated Go missing %q", want)
		}
	}
}

func TestGenerateVerilog(t *testing.T) {
	_, m := mapping(t)
	var sb strings.Builder
	if err := GenerateVerilog(&sb, m); err != nil {
		t.Fatal(err)
	}
	src := sb.String()
	for _, want := range []string{
		"module request_locmsg(",
		"module response_bdir(",
		"always @(*)",
		"casez", // or case
	} {
		if want == "casez" {
			if !strings.Contains(src, "case (") {
				t.Errorf("generated Verilog missing case block")
			}
			continue
		}
		if !strings.Contains(src, want) {
			t.Errorf("generated Verilog missing %q", want)
		}
	}
}

// rowOf decodes row i of t, for failure messages and row-level fixtures.
func rowOf(t *rel.Table, i int) []rel.Value {
	out := make([]rel.Value, t.NumCols())
	for j := range out {
		out[j] = t.At(i, j)
	}
	return out
}
