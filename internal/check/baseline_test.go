package check

import (
	"os"
	"path/filepath"
	"testing"

	"coherdb/internal/delta"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

func baselineDB(t *testing.T) *sqlmini.DB {
	t.Helper()
	db := sqlmini.NewDB()
	tab, err := rel.NewTable("cache_ctl", "state", "event", "next")
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"I", "load", "S"},
		{"S", "store", "M"},
		{"M", "evict", "I"},
	}
	for _, r := range rows {
		if err := tab.Insert(rel.S(r[0]), rel.S(r[1]), rel.S(r[2])); err != nil {
			t.Fatal(err)
		}
	}
	db.PutTable(tab)
	return db
}

func baselineSuite() *Suite {
	s := NewSuite()
	s.Add(Invariant{
		Name: "no-self-loop",
		SQL:  "SELECT state FROM cache_ctl WHERE state = next",
	})
	s.Add(Invariant{
		Name: "evict-goes-invalid",
		SQL:  "SELECT state FROM cache_ctl WHERE event = 'evict' AND next <> 'I'",
	})
	return s
}

func TestGraphPersistRoundTrip(t *testing.T) {
	g := delta.NewGraph()
	g.Add("a", delta.Input{Table: "t1", Cols: []string{"x", "y"}})
	g.Add("b", delta.Input{Table: "t2"}, delta.Input{Table: "t1", Cols: []string{"z"}})
	data, err := delta.EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := delta.DecodeGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding the decoded graph gives the same bytes: same nodes, in
	// the same order, with the same inputs.
	again, err := delta.EncodeGraph(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("round trip changed the graph:\n%s\n%s", data, again)
	}
	for _, n := range []string{"a", "b"} {
		a, b := g.Inputs(n), back.Inputs(n)
		if len(a) != len(b) {
			t.Fatalf("node %s: inputs %v != %v", n, a, b)
		}
		for i := range a {
			if a[i].Table != b[i].Table || len(a[i].Cols) != len(b[i].Cols) {
				t.Fatalf("node %s input %d: %v != %v", n, i, a[i], b[i])
			}
		}
	}
}

func TestBaselineCacheRoundTrip(t *testing.T) {
	db := baselineDB(t)
	suite := baselineSuite()
	path := filepath.Join(t.TempDir(), "baseline.json")

	// Nothing cached yet.
	if _, ok := LoadBaseline(path, db, suite); ok {
		t.Fatal("loaded a baseline that was never saved")
	}

	results := suite.Run(db, Options{})
	for _, r := range results {
		if !r.Passed() {
			t.Fatalf("fixture invariant failed: %+v", r)
		}
	}
	if err := SaveBaseline(path, db, suite, results); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new suite object, same DB content.
	fresh := baselineSuite()
	prev, ok := LoadBaseline(path, db, fresh)
	if !ok {
		t.Fatal("cache miss on identical spec")
	}
	if len(prev) != fresh.Len() {
		t.Fatalf("loaded %d results, want %d", len(prev), fresh.Len())
	}
	for _, r := range prev {
		if !r.Passed() {
			t.Fatalf("synthesized result not passing: %+v", r)
		}
	}

	// The session's first (empty) delta: everything analyzable skips.
	rev := db.BeginRevision()
	d := rev.Commit()
	after := fresh.RunDelta(db, prev, d, Options{})
	for _, r := range after {
		if !r.Skipped {
			t.Fatalf("invariant %s re-checked on empty delta after cache hit", r.Invariant.Name)
		}
	}

	// Mutating a read table invalidates the hash.
	if _, err := db.Exec("INSERT INTO cache_ctl VALUES ('E', 'store', 'M')"); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadBaseline(path, db, baselineSuite()); ok {
		t.Fatal("cache hit after table mutation")
	}
}

func TestBaselineRefusesDirtyRuns(t *testing.T) {
	db := baselineDB(t)
	suite := NewSuite().Add(Invariant{
		Name: "always-violated",
		SQL:  "SELECT state FROM cache_ctl WHERE state = 'I'",
	})
	path := filepath.Join(t.TempDir(), "baseline.json")
	results := suite.Run(db, Options{})
	if results[0].Passed() {
		t.Fatal("fixture should violate")
	}
	if err := SaveBaseline(path, db, suite, results); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("baseline file written for a failing run")
	}
}

func TestBaselineSuiteShapeMismatch(t *testing.T) {
	db := baselineDB(t)
	suite := baselineSuite()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := SaveBaseline(path, db, suite, suite.Run(db, Options{})); err != nil {
		t.Fatal(err)
	}
	other := baselineSuite().Add(Invariant{
		Name: "extra",
		SQL:  "SELECT state FROM cache_ctl WHERE state = ''",
	})
	if _, ok := LoadBaseline(path, db, other); ok {
		t.Fatal("cache hit across different suites")
	}
}
