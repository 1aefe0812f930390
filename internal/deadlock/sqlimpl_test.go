package deadlock

import (
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// TestSQLImplementationMatchesGo cross-checks the literal-SQL analysis
// against the Go implementation: identical edge sets and cycles for every
// assignment in the §4.2 story.
func TestSQLImplementationMatchesGo(t *testing.T) {
	tables := controllerTables(t)
	for _, name := range protocol.AssignmentNames() {
		v := assignment(t, name)
		goRep, err := Analyze(tables, v, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sqlRep, err := AnalyzeSQL(tables, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		goEdges := goRep.Graph.Edges()
		sqlEdges := sqlRep.Graph.Edges()
		if len(goEdges) != len(sqlEdges) {
			t.Fatalf("%s: edge counts differ: go=%v sql=%v", name, goEdges, sqlEdges)
		}
		for i := range goEdges {
			if goEdges[i] != sqlEdges[i] {
				t.Fatalf("%s: edge %d differs: go=%v sql=%v", name, i, goEdges[i], sqlEdges[i])
			}
		}
		if len(goRep.Cycles) != len(sqlRep.Cycles) {
			t.Fatalf("%s: cycle counts differ: go=%v sql=%v", name, goRep.Cycles, sqlRep.Cycles)
		}
	}
}

// TestSQLImplementationDependencyRows checks that the SQL path derives the
// published §4.2 rows.
func TestSQLImplementationDependencyRows(t *testing.T) {
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignVC4)
	db := sqlmini.NewDB()
	rep, err := AnalyzeSQL(tables, v, db)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deadlocked() {
		t.Fatal("SQL analysis missed the deadlock")
	}
	// The intermediate SQL tables are inspectable, as in the paper.
	mdeps, ok := db.Table("M_deps")
	if !ok {
		t.Fatal("M_deps not materialized")
	}
	r1 := mdeps.Select(func(r rel.Row) bool {
		return r.Get("m1").Equal(rel.S("wb")) && r.Get("m2").Equal(rel.S("compl")) &&
			r.Get("vc1").Equal(rel.S("VC4")) && r.Get("vc2").Equal(rel.S("VC2"))
	})
	if r1.Empty() {
		t.Fatal("R1 missing from the SQL-built M dependency table")
	}
	// And the composed R3 row must appear in the protocol table.
	proto := db.MustTable("protocol_deps")
	r3 := proto.Select(func(r rel.Row) bool {
		return r.Get("m1").Equal(rel.S("wb")) && r.Get("m2").Equal(rel.S("mread")) &&
			r.Get("vc1").Equal(rel.S("VC4")) && r.Get("vc2").Equal(rel.S("VC4"))
	})
	if r3.Empty() {
		t.Fatal("R3 missing from the SQL-built protocol dependency table")
	}
}

// TestPlacementStatementsDeterministic checks that every placement's SQL
// text is the same on every build, so repeated analyses on one DB hit its
// plan cache (substitution maps iterate in random order).
func TestPlacementStatementsDeterministic(t *testing.T) {
	for i, p := range Placements() {
		first := placementStmt("deps_p", p)
		for try := 0; try < 50; try++ {
			if again := placementStmt("deps_p", Placements()[i]); again != first {
				t.Fatalf("placement %s: statement changed between builds:\n%s\n%s", p.Name, first, again)
			}
		}
	}
}

func TestSQLImplementationBadInputs(t *testing.T) {
	tables := controllerTables(t)
	bad := rel.MustNewTable("V", "m", "s")
	if _, err := AnalyzeSQL(tables, bad, nil); err == nil {
		t.Fatal("malformed V must error")
	}
	noMsg := rel.MustNewTable("X", "foo")
	v := assignment(t, protocol.AssignVC4)
	if _, err := AnalyzeSQL([]*rel.Table{noMsg}, v, nil); err == nil {
		t.Fatal("malformed controller must error")
	}
}
