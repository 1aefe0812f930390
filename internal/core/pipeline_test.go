package core

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// The full pipeline is expensive; run it once and share. fullRun makes the
// calls every tool makes: the four phases in order.
var (
	runOnce sync.Once
	runVal  *Pipeline
	runErr  error
)

func fullRun(t testing.TB) *Pipeline {
	t.Helper()
	runOnce.Do(func() {
		runVal = New()
		for _, phase := range []func() error{
			runVal.Generate,
			func() error { return runVal.CheckInvariants(0) },
			func() error { return runVal.CheckDeadlocks(nil, 0) },
			runVal.MapToHardware,
		} {
			if runErr = phase(); runErr != nil {
				return
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return runVal
}

func TestFullPipeline(t *testing.T) {
	p := fullRun(t)
	r := p.Report
	if len(r.GenStats) != 8 {
		t.Fatalf("generated %d tables, want 8", len(r.GenStats))
	}
	if r.InvariantSummary.Failed != 0 || r.InvariantSummary.Passed < 45 {
		t.Fatalf("invariants: %s", r.InvariantSummary)
	}
	if len(r.AssignmentOrder) != 3 {
		t.Fatalf("assignments analyzed: %v", r.AssignmentOrder)
	}
	if !r.Deadlock[protocol.AssignInitial].Deadlocked() {
		t.Fatal("initial assignment should deadlock")
	}
	if !r.Deadlock[protocol.AssignVC4].Deadlocked() {
		t.Fatal("vc4 assignment should deadlock")
	}
	if r.Deadlock[protocol.AssignFixed].Deadlocked() {
		t.Fatal("fixed assignment should be clean")
	}
	if r.Mapping == nil || len(r.Mapping.Tables) != 9 {
		t.Fatal("mapping incomplete")
	}
	for _, phase := range []string{"generate", "invariants", "deadlock", "mapping"} {
		if r.Elapsed[phase] <= 0 {
			t.Fatalf("phase %s not timed", phase)
		}
	}
}

func TestControllerTablesOrder(t *testing.T) {
	p := fullRun(t)
	tables, err := p.ControllerTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 8 || tables[0].Name() != protocol.DirectoryTable {
		t.Fatalf("tables = %d, first = %s", len(tables), tables[0].Name())
	}
}

func TestWriteTables(t *testing.T) {
	p := fullRun(t)
	dir := t.TempDir()
	if err := p.WriteTables(dir); err != nil {
		t.Fatal(err)
	}
	// D must round-trip through its CSV dump.
	f, err := os.Open(filepath.Join(dir, "D.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := rel.ReadCSV("D", f)
	if err != nil {
		t.Fatal(err)
	}
	d := p.DB.MustTable("D")
	eq, err := got.EqualRows(d)
	if err != nil || !eq {
		t.Fatalf("CSV round trip: eq=%v err=%v", eq, err)
	}
}

func TestPhaseErrors(t *testing.T) {
	p := New()
	if err := p.CheckDeadlocks(nil, 0); err == nil {
		t.Fatal("deadlock phase before generation must error")
	}
	if p.Report.Elapsed["deadlock"] <= 0 {
		t.Fatal("failed phase must still record its elapsed time")
	}
	if err := p.MapToHardware(); err == nil {
		t.Fatal("mapping before generation must error")
	}
	if _, err := p.ControllerTables(); err == nil {
		t.Fatal("tables before generation must error")
	}
}

func TestInvariantFailureSurfaces(t *testing.T) {
	// Corrupt D after generation: the pipeline invariant phase must fail.
	p := New()
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	d := p.DB.MustTable("D")
	bad := d.Clone()
	for i := 0; i < bad.NumRows(); i++ {
		if bad.Get(i, "locmsg").Str() == "retry" {
			if err := bad.Set(i, "locmsg", rel.Null()); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	p.DB.PutTable(bad)
	err := p.CheckInvariants(0)
	if !errors.Is(err, ErrInvariantsFailed) {
		t.Fatalf("err = %v, want ErrInvariantsFailed", err)
	}
}

func TestRunStopsAtFailingPhase(t *testing.T) {
	// A deadlock phase whose last assignment is the deadlocky one must
	// fail with ErrStillDeadlocked.
	p := New()
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	err := p.CheckDeadlocks([]string{protocol.AssignVC4}, 0)
	if !errors.Is(err, ErrStillDeadlocked) {
		t.Fatalf("err = %v, want ErrStillDeadlocked", err)
	}
}

// TestMapPhaseSpans checks the map phase's per-step attribution: one
// hwmap.partition, hwmap.verify and hwmap.equivalence span each, children
// of the pipeline.mapping span and inside it, with ED's and the nine
// implementation tables' row counts.
func TestMapPhaseSpans(t *testing.T) {
	c := obs.NewCollector(1 << 16)
	p := New()
	p.Observe(c, nil)
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.MapToHardware(); err != nil {
		t.Fatal(err)
	}
	var phase *obs.Span
	steps := map[string][]obs.Span{}
	for _, sp := range c.Spans() {
		switch sp.Name {
		case "pipeline.mapping":
			phase = &sp
		case "hwmap.partition", "hwmap.verify", "hwmap.equivalence":
			steps[sp.Name] = append(steps[sp.Name], sp)
		}
	}
	if phase == nil {
		t.Fatal("no pipeline.mapping span")
	}
	m := p.Report.Mapping
	impl := 0
	for _, tab := range m.Tables {
		impl += tab.NumRows()
	}
	for _, name := range []string{"hwmap.partition", "hwmap.verify", "hwmap.equivalence"} {
		got := steps[name]
		if len(got) != 1 {
			t.Fatalf("%d %s spans, want 1", len(got), name)
		}
		sp := got[0]
		if sp.ParentID != phase.ID {
			t.Errorf("%s: parent %d, want pipeline.mapping (%d)", name, sp.ParentID, phase.ID)
		}
		if sp.Start.Before(phase.Start) || sp.End.After(phase.End) {
			t.Errorf("%s [%v, %v] is not inside pipeline.mapping [%v, %v]", name, sp.Start, sp.End, phase.Start, phase.End)
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["ed_rows"] != strconv.Itoa(m.Extended.NumRows()) || attrs["impl_rows"] != strconv.Itoa(impl) {
			t.Errorf("%s: attrs %v, want ed_rows=%d impl_rows=%d", name, attrs, m.Extended.NumRows(), impl)
		}
	}
}
