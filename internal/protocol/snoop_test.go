package protocol

import (
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/deadlock"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// The generality demonstration (§6): the same methodology applied to a
// broadcast snooping MSI protocol in the style of [10].

func snoopTables(t testing.TB) []*rel.Table {
	t.Helper()
	var out []*rel.Table
	for _, sb := range SnoopSpecBuilders() {
		spec, err := sb.Build()
		if err != nil {
			t.Fatalf("%s: %v", sb.Name, err)
		}
		tab, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatalf("%s: %v", sb.Name, err)
		}
		if tab.Empty() {
			t.Fatalf("%s generated empty", sb.Name)
		}
		out = append(out, tab)
	}
	return out
}

func TestSnoopTablesGenerate(t *testing.T) {
	tables := snoopTables(t)
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tab := range tables {
		t.Logf("%s: %d rows x %d cols", tab.Name(), tab.NumRows(), tab.NumCols())
	}
}

func TestSnoopDeterminism(t *testing.T) {
	// The generic determinism check works unchanged on the new protocol.
	db := sqlmini.NewDB()
	RegisterFuncs(db.Register)
	for _, tab := range snoopTables(t) {
		db.PutTable(tab)
	}
	db.SetStrictNulls(true)
	checks := map[string]string{
		"SB": `SELECT inmsg, busst, COUNT(*) AS n FROM SB GROUP BY inmsg, busst HAVING COUNT(*) > 1`,
		"SC": `SELECT inmsg, who, cachest, COUNT(*) AS n FROM SC GROUP BY inmsg, who, cachest HAVING COUNT(*) > 1`,
		"SM": `SELECT inmsg, owned, COUNT(*) AS n FROM SM GROUP BY inmsg, owned HAVING COUNT(*) > 1`,
	}
	for name, sql := range checks {
		empty, err := db.QueryEmpty(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !empty {
			t.Fatalf("%s is nondeterministic", name)
		}
	}
}

func TestSnoopInvariants(t *testing.T) {
	db := sqlmini.NewDB()
	RegisterFuncs(db.Register)
	for _, tab := range snoopTables(t) {
		db.PutTable(tab)
	}
	db.SetStrictNulls(true)
	invariants := map[string]string{
		// An exclusive request observed by any other cache invalidates it.
		"getx-invalidates": `SELECT cachest, nxtcachest FROM SC WHERE
			inmsg = 'getx' AND who = 'other' AND cachest IN ('M', 'S')
			AND NOT nxtcachest = 'I'`,
		// The owner always supplies data when another cache reads.
		"owner-supplies": `SELECT inmsg, dresp FROM SC WHERE
			who = 'other' AND cachest = 'M' AND inmsg IN ('gets', 'getx')
			AND NOT dresp = 'bdata'`,
		// Memory supplies exactly when no cache owns.
		"memory-supplies-unowned": `SELECT inmsg, owned, dresp FROM SM WHERE
			inmsg IN ('gets', 'getx') AND owned = 'no' AND dresp IS NULL`,
		"memory-defers-owned": `SELECT inmsg, owned, dresp FROM SM WHERE
			inmsg IN ('gets', 'getx') AND owned = 'yes' AND dresp IS NOT NULL`,
		// The arbiter never grants two transactions at once.
		"bus-serializes": `SELECT inmsg, busst, bcast FROM SB WHERE
			busst = 'granted' AND bcast IS NOT NULL`,
	}
	for name, sql := range invariants {
		empty, err := db.QueryEmpty(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !empty {
			tab, _ := db.Query(sql)
			t.Fatalf("invariant %s violated:\n%s", name, tab)
		}
	}
}

func TestSnoopDeadlockFree(t *testing.T) {
	// The same §4.1 analysis, unchanged, over the snooping system.
	tables := snoopTables(t)
	v := BuildSnoopAssignment()
	rep, err := deadlock.Analyze(tables, v, deadlock.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlocked() {
		t.Fatalf("snooping bus assignment deadlocks: %v", rep.Cycles)
	}
	if len(rep.Graph.Edges()) == 0 {
		t.Fatal("no dependencies found — assignment or tables miswired")
	}
	t.Logf("snoop VCG: %d channels, %d edges, acyclic", len(rep.Graph.Nodes()), len(rep.Graph.Edges()))
}

func TestSnoopSharedBusDeadlocks(t *testing.T) {
	// Counterpoint: collapsing the broadcast onto the request channel (a
	// single store-and-forward bus hop) creates the classic arbiter
	// self-dependency, and the analysis finds it.
	tables := snoopTables(t)
	v := BuildSnoopAssignment()
	shared := v.Clone()
	for i := 0; i < shared.NumRows(); i++ {
		if shared.Get(i, "v").Equal(rel.S("BUS1")) {
			if err := shared.Set(i, "v", rel.S("BUS0")); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := deadlock.Analyze(tables, shared, deadlock.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deadlocked() {
		t.Fatal("shared request/broadcast channel should cycle")
	}
}
