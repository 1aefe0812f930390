package check

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

// One shared generated database for the whole test package.
var (
	dbOnce sync.Once
	dbVal  *sqlmini.DB
	dbErr  error
)

func protocolDB(t testing.TB) *sqlmini.DB {
	t.Helper()
	dbOnce.Do(func() {
		dbVal = sqlmini.NewDB()
		_, dbErr = protocol.GenerateAllOpts(dbVal, constraint.Options{})
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbVal
}

func TestSuiteScale(t *testing.T) {
	// C3: "All of the protocol invariants (around 50) are checked."
	// Our suite completes the published four to the same order: the
	// systematic family over all eight tables lands at ~60.
	s := ProtocolSuite()
	if n := s.Len(); n < 45 || n > 70 {
		t.Fatalf("suite has %d invariants, want the paper's order of 50", n)
	}
}

func TestSuiteNamesUniqueAndDocumented(t *testing.T) {
	for _, inv := range ProtocolSuite().Invariants() {
		if inv.Name == "" || inv.Desc == "" || inv.Ref == "" || inv.SQL == "" {
			t.Fatalf("underdocumented invariant: %+v", inv)
		}
		if !strings.Contains(strings.ToUpper(inv.SQL), "SELECT") {
			t.Fatalf("invariant %s is not a SELECT", inv.Name)
		}
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSuite().
		Add(Invariant{Name: "x", SQL: "SELECT 1"}).
		Add(Invariant{Name: "x", SQL: "SELECT 1"})
}

func TestProtocolSuitePassesOnGeneratedTables(t *testing.T) {
	// The headline §4.3 result: the debugged tables satisfy every
	// invariant.
	db := protocolDB(t)
	results := ProtocolSuite().Run(db, Options{})
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: query error: %v", r.Invariant.Name, r.Err)
			continue
		}
		if !r.Passed() {
			t.Errorf("%s (%s) violated by %d rows:\n%s",
				r.Invariant.Name, r.Invariant.Ref, r.Violations.NumRows(), r.Violations)
		}
	}
	sum := Summarize(results)
	if sum.Failed != 0 || sum.Errors != 0 {
		t.Fatalf("summary: %s", sum)
	}
	if sum.Passed != ProtocolSuite().Len() {
		t.Fatalf("passed = %d, want %d", sum.Passed, ProtocolSuite().Len())
	}
	if !strings.Contains(sum.String(), "passed") {
		t.Fatal("summary rendering broken")
	}
}

// TestMisspelledInvariantsError: an invariant holds when its violation
// query returns no rows, so a query the engine cannot evaluate must not
// pass. A misspelled column or function fails when the query plans, even
// where the rest of its WHERE selects no row.
func TestMisspelledInvariantsError(t *testing.T) {
	db := protocolDB(t)
	s := NewSuite().
		Add(Invariant{Name: "misspelled-column", SQL: `SELECT inmsg, locmsgg FROM D WHERE inmsg = 'readex' AND dirst = 'nosuchstate'`}).
		Add(Invariant{Name: "misspelled-function", SQL: `SELECT inmsg FROM D WHERE inmsg = 'nosuchmsg' AND isrequestt(inmsg)`})
	want := []struct {
		err  error
		text string
	}{
		{sqlmini.ErrUnknownColumn, "sqlmini: unknown column: locmsgg"},
		{sqlmini.ErrUnknownFunc, "sqlmini: unknown function: isrequestt"},
	}
	for i, r := range s.Run(db, Options{}) {
		if r.Passed() || !errors.Is(r.Err, want[i].err) || r.Err.Error() != want[i].text {
			t.Errorf("%s: passed=%v err=%v, want %q", r.Invariant.Name, r.Passed(), r.Err, want[i].text)
		}
	}
}

func TestSuiteDetectsSeededBug(t *testing.T) {
	// Early error detection: corrupt one row of D the way a hand-edited
	// table would be, and the suite must flag it.
	db := protocolDB(t)
	// Work on a copy so other tests keep the clean table.
	d, _ := db.Table("D")
	defer db.PutTable(d)
	bad := d.Clone()
	// Bug: a readex completion "forgets" the ownership transfer.
	seeded := false
	for i := 0; i < bad.NumRows(); i++ {
		if bad.Get(i, "locmsg").Str() == "datax" {
			if err := bad.Set(i, "nxtdirpv", rel.S("inc")); err != nil {
				t.Fatal(err)
			}
			seeded = true
			break
		}
	}
	if !seeded {
		t.Fatal("no datax row to corrupt")
	}
	db.PutTable(bad)
	results := ProtocolSuite().Run(db, Options{})
	found := false
	for _, r := range results {
		if r.Invariant.Name == "datax-transfers-ownership" && !r.Passed() {
			found = true
		}
	}
	if !found {
		t.Fatal("seeded ownership bug not detected")
	}
}

func TestSuiteDetectsRetryBug(t *testing.T) {
	db := protocolDB(t)
	d, _ := db.Table("D")
	defer db.PutTable(d)
	bad := d.Clone()
	seeded := false
	for i := 0; i < bad.NumRows(); i++ {
		if bad.Get(i, "locmsg").Str() == "retry" {
			// Bug: the retry is "optimized away" — the request is dropped.
			if err := bad.Set(i, "locmsg", rel.Null()); err != nil {
				t.Fatal(err)
			}
			seeded = true
			break
		}
	}
	if !seeded {
		t.Fatal("no retry row to corrupt")
	}
	db.PutTable(bad)
	results := ProtocolSuite().Run(db, Options{})
	var hit []string
	for _, r := range results {
		if r.Err == nil && !r.Passed() {
			hit = append(hit, r.Invariant.Name)
		}
	}
	if len(hit) == 0 {
		t.Fatal("seeded dropped-retry bug not detected")
	}
	found := false
	for _, name := range hit {
		if name == "busy-request-retried" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected busy-request-retried to fire, got %v", hit)
	}
}

func TestRunSingleWorkerMatches(t *testing.T) {
	db := protocolDB(t)
	r1 := ProtocolSuite().Run(db, Options{Workers: 1})
	rN := ProtocolSuite().Run(db, Options{Workers: 8})
	if len(r1) != len(rN) {
		t.Fatal("result lengths differ")
	}
	for i := range r1 {
		if r1[i].Passed() != rN[i].Passed() {
			t.Fatalf("invariant %s differs across worker counts", r1[i].Invariant.Name)
		}
	}
}

// TestNilTracerRunDeltaAllocs bounds what re-checking an untouched delta
// allocates without a tracer: every invariant is carried over, and the
// attributes the check.suite span would carry are never formatted.
func TestNilTracerRunDeltaAllocs(t *testing.T) {
	db := protocolDB(t)
	suite := ProtocolSuite()
	prev := suite.Run(db, Options{})
	d := db.BeginRevision().Commit()
	for _, r := range suite.RunDelta(db, prev, d, Options{}) {
		if !r.Skipped {
			t.Fatalf("invariant %s re-checked on an empty delta", r.Invariant.Name)
		}
	}
	allocs := testing.AllocsPerRun(50, func() { suite.RunDelta(db, prev, d, Options{}) })
	t.Logf("%.0f allocations per untouched re-check", allocs)
	if allocs > 1 {
		t.Fatalf("an untouched re-check allocated %.0f times, want at most 1", allocs)
	}
}
