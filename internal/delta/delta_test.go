package delta

import (
	"maps"
	"testing"

	"coherdb/internal/rel"
)

// mapCatalog is a test double for sqlmini.DB's catalog surface.
type mapCatalog map[string]*rel.Table

func (c mapCatalog) Names() []string {
	out := make([]string, 0, len(c))
	for n := range c {
		out = append(out, n)
	}
	return out
}

func (c mapCatalog) Table(name string) (*rel.Table, bool) {
	t, ok := c[name]
	return t, ok
}

// Diff returns the delta from tr's baseline to c's current state without
// moving the baseline: DiffAndCapture on a copy of the tracker.
func (tr *Tracker) Diff(c Catalog) *Set {
	cp := &Tracker{snaps: maps.Clone(tr.snaps), vers: maps.Clone(tr.vers)}
	return cp.DiffAndCapture(c)
}

func twoColTable(name string) *rel.Table {
	t := rel.MustNewTable(name, "st", "pv")
	t.MustInsert(rel.S("I"), rel.S("0"))
	t.MustInsert(rel.S("M"), rel.S("1"))
	return t
}

func TestTrackerDiffFastPathAndEdit(t *testing.T) {
	cat := mapCatalog{"D": twoColTable("D"), "M": twoColTable("M")}
	tr := NewTracker()
	tr.Capture(cat)

	if s := tr.Diff(cat); s.String() != "<empty>" {
		t.Fatalf("no-edit diff not empty: %s", s)
	}

	if err := cat["D"].Set(0, "pv", rel.S("7")); err != nil {
		t.Fatal(err)
	}
	s := tr.Diff(cat)
	if !s.Touches("D") || s.Touches("M") {
		t.Fatalf("edit diff wrong: %s", s)
	}
	if !s.Touches("D", "pv") || s.Touches("D", "st") {
		t.Fatalf("column attribution wrong: %s", s)
	}
	if s.Rows() != 2 { // one removed old row, one added new row
		t.Fatalf("rows = %d, want 2", s.Rows())
	}

	// Diff does not advance the baseline; DiffAndCapture does.
	if s2 := tr.Diff(cat); s2.String() == "<empty>" {
		t.Fatal("baseline moved without Capture")
	}
	tr.Capture(cat)
	if s3 := tr.Diff(cat); s3.String() != "<empty>" {
		t.Fatalf("diff after recapture not empty: %s", s3)
	}
}

// TestDiffAndCaptureMovesBaseline: each DiffAndCapture reports the edits
// since the previous one, over edited, untouched, created and dropped
// tables alike.
func TestDiffAndCaptureMovesBaseline(t *testing.T) {
	cat := mapCatalog{"D": twoColTable("D"), "M": twoColTable("M")}
	tr := NewTracker()
	tr.Capture(cat)
	if err := cat["D"].Set(0, "pv", rel.S("7")); err != nil {
		t.Fatal(err)
	}
	if s := tr.DiffAndCapture(cat); !s.Touches("D", "pv") || s.Touches("M") || s.Rows() != 2 {
		t.Fatalf("first edit: %s", s)
	}
	if s := tr.DiffAndCapture(cat); s.String() != "<empty>" {
		t.Fatalf("no edit since the last diff: %s", s)
	}
	cat["D"].MustInsert(rel.S("S"), rel.S("2"))
	if err := cat["M"].Set(1, "st", rel.S("E")); err != nil {
		t.Fatal(err)
	}
	if s := tr.DiffAndCapture(cat); !s.Touches("D") || !s.Touches("M", "st") || s.Touches("M", "pv") || s.Rows() != 3 {
		t.Fatalf("second edit: %s", s)
	}
	delete(cat, "M")
	cat["N"] = twoColTable("N")
	if s := tr.DiffAndCapture(cat); s.Touches("D") || !s.Touches("M") || !s.Touches("N") || s.Rows() != 4 {
		t.Fatalf("drop and create: %s", s)
	}
	if s := tr.DiffAndCapture(cat); s.String() != "<empty>" {
		t.Fatalf("after drop and create: %s", s)
	}
}

// TestDiffAndCaptureVersions: each delta names the live tables it goes
// between; a table that moved to a new version with the same rows — a
// no-op write, a copy — touches nothing, but Table returns its empty
// delta between the two versions.
func TestDiffAndCaptureVersions(t *testing.T) {
	cat := mapCatalog{"D": twoColTable("D")}
	tr := NewTracker()
	tr.Capture(cat)
	if s := tr.DiffAndCapture(cat); s.Table("D") != nil {
		t.Fatalf("no write: %+v", s.Table("D"))
	}
	for _, move := range []string{"no-op write", "copy"} {
		v0 := cat["D"].Version()
		if move == "copy" {
			cat["D"] = cat["D"].Clone()
		} else if err := cat["D"].Set(0, "pv", rel.S("0")); err != nil {
			t.Fatal(err)
		}
		s := tr.DiffAndCapture(cat)
		if d := s.Table("D"); s.String() != "<empty>" || s.Touches("D") || d == nil || !d.Empty() ||
			d.OldVersion != v0 || d.NewVersion != cat["D"].Version() {
			t.Fatalf("%s: %s, %+v", move, s, d)
		}
	}
	v1 := cat["D"].Version()
	if err := cat["D"].Set(0, "pv", rel.S("7")); err != nil {
		t.Fatal(err)
	}
	if d := tr.DiffAndCapture(cat).Table("D"); d == nil || d.OldVersion != v1 || d.NewVersion != cat["D"].Version() {
		t.Fatalf("edit: %+v", d)
	}
	v1 = cat["D"].Version()
	cat["D"].MustInsert(rel.S("S"), rel.S("2"))
	if d := tr.DiffAndCapture(cat).Table("D"); d == nil || d.OldVersion != v1 || d.NewVersion != cat["D"].Version() {
		t.Fatalf("second edit: %+v", d)
	}
	n := twoColTable("N")
	cat["N"] = n
	if d := tr.DiffAndCapture(cat).Table("N"); d == nil || d.OldVersion != (rel.Version{}) || d.NewVersion != n.Version() {
		t.Fatalf("created: %+v", d)
	}
	delete(cat, "N")
	if d := tr.DiffAndCapture(cat).Table("N"); d == nil || d.OldVersion != n.Version() || d.NewVersion != (rel.Version{}) {
		t.Fatalf("dropped: %+v", d)
	}
}

func TestTrackerCreateDropReplace(t *testing.T) {
	cat := mapCatalog{"D": twoColTable("D")}
	tr := NewTracker()
	tr.Capture(cat)

	cat["N"] = twoColTable("N")
	delete(cat, "D")
	s := tr.Diff(cat)
	nd := s.byTable["N"]
	if nd == nil || len(nd.Added) != 2 || len(nd.Removed) != 0 {
		t.Fatalf("created table delta wrong: %s", s)
	}
	dd := s.byTable["D"]
	if dd == nil || len(dd.Removed) != 2 || len(dd.Added) != 0 {
		t.Fatalf("dropped table delta wrong: %s", s)
	}

	// Replacing a table object with identical contents must still be
	// detected as untouched (real diff, empty result).
	tr.Capture(cat)
	cat["N"] = cat["N"].Clone()
	if s := tr.Diff(cat); s.String() != "<empty>" {
		t.Fatalf("identical replacement reported a delta: %s", s)
	}
}

func TestGraphDirty(t *testing.T) {
	g := NewGraph()
	g.Add("inv-a", Input{Table: "D", Cols: []string{"st"}})
	g.Add("inv-b", Input{Table: "D", Cols: []string{"pv"}})
	g.Add("inv-c", Input{Table: "M"}) // whole-table dependency
	g.Add("inv-d", Input{Table: "D", Cols: []string{"st"}}, Input{Table: "M", Cols: []string{"pv"}})

	d := twoColTable("D")
	snap := d.Snapshot()
	if err := d.Set(1, "pv", rel.S("9")); err != nil {
		t.Fatal(err)
	}
	s := NewSet()
	s.Add(rel.DiffCodes(snap, d))

	nodes := []string{"inv-a", "inv-b", "inv-c", "inv-d"}
	var dirty []string
	for _, n := range nodes {
		if DirtyInputs(s, g.Inputs(n)) {
			dirty = append(dirty, n)
		}
	}
	if len(dirty) != 1 || dirty[0] != "inv-b" {
		t.Fatalf("dirty nodes = %v, want [inv-b]", dirty)
	}

	// nil Set ⇒ everything dirty (no history).
	for _, n := range nodes {
		if !DirtyInputs(nil, g.Inputs(n)) {
			t.Fatalf("nil set did not dirty %s", n)
		}
	}
}

func TestSetConservativeNil(t *testing.T) {
	var s *Set
	if s.String() == "<empty>" {
		t.Fatal("nil set must not report empty")
	}
	if !s.Touches("anything") || !s.Touches("anything", "col") {
		t.Fatal("nil set must be conservative")
	}
}
