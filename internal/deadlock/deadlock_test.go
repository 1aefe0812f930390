package deadlock

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"coherdb/internal/constraint"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// Shared generated controller tables for the test package.
var (
	genOnce   sync.Once
	genTables []*rel.Table
	genErr    error
)

func controllerTables(t testing.TB) []*rel.Table {
	t.Helper()
	genOnce.Do(func() {
		for _, sb := range protocol.SpecBuilders() {
			spec, err := sb.Build()
			if err != nil {
				genErr = err
				return
			}
			tab, _, err := constraint.Solve(spec)
			if err != nil {
				genErr = err
				return
			}
			genTables = append(genTables, tab)
		}
	})
	if genErr != nil {
		t.Fatal(genErr)
	}
	return genTables
}

func assignment(t testing.TB, name string) *rel.Table {
	t.Helper()
	v, err := protocol.BuildAssignment(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAssignmentWrapper(t *testing.T) {
	v := assignment(t, protocol.AssignVC4)
	a, err := NewAssignment(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Channel("readex", "local", "home"); got != "VC0" {
		t.Fatalf("readex channel = %q", got)
	}
	if got := a.Channel("mread", "home", "home"); got != "VC4" {
		t.Fatalf("mread channel = %q", got)
	}
	if got := a.Channel("nosuch", "local", "home"); got != "" {
		t.Fatalf("unassigned hop = %q", got)
	}
}

func TestAssignmentValidation(t *testing.T) {
	bad := rel.MustNewTable("V", "m", "s", "d") // missing v
	if _, err := NewAssignment(bad); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("err = %v", err)
	}
	dup := rel.MustNewTable("V", "m", "s", "d", "v")
	dup.MustInsert(rel.S("x"), rel.S("local"), rel.S("home"), rel.S("VC0"))
	dup.MustInsert(rel.S("x"), rel.S("local"), rel.S("home"), rel.S("VC1"))
	if _, err := NewAssignment(dup); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("conflicting assignment err = %v", err)
	}
	empty := rel.MustNewTable("V", "m", "s", "d", "v")
	empty.MustInsert(rel.Null(), rel.S("local"), rel.S("home"), rel.S("VC0"))
	if _, err := NewAssignment(empty); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("empty fields err = %v", err)
	}
}

func TestPlacements(t *testing.T) {
	ps := Placements()
	if len(ps) != 5 {
		t.Fatalf("placements = %d, want 5", len(ps))
	}
	var lhr Placement
	for _, p := range ps {
		if p.Name == "L!=H=R" {
			lhr = p
		}
	}
	if lhr.Apply("remote") != "home" || lhr.Apply("local") != "local" {
		t.Fatal("L!=H=R substitution wrong")
	}
}

// codeDeps derives a controller's dependency rows on the code path and
// checks them, row for row, against the string path over V keyed by
// strings.
func codeDeps(t *testing.T, tab *rel.Table, v *rel.Table) []DepRow {
	t.Helper()
	a, err := NewAssignment(v)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := controllerDeps(tab, a)
	if err != nil {
		t.Fatal(err)
	}
	str := func(c uint32) string { return rel.SharedDict().Value(c).Str() }
	atom := func(q quad) VAssign { return VAssign{M: str(q[0]), S: str(q[1]), D: str(q[2]), VC: str(q[3])} }
	rows := make([]DepRow, len(deps))
	for i, d := range deps {
		rows[i] = DepRow{In: atom(d[0]), Out: atom(d[1]), Origin: tab.Name()}
	}
	sv, err := oracleAssignment(v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ControllerDeps(tab, sv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%s: %d dependency rows, oracle %d", tab.Name(), len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("%s: row %d = %s, oracle %s", tab.Name(), i, rows[i], want[i])
		}
	}
	return rows
}

func controllerTable(t *testing.T, name string) *rel.Table {
	t.Helper()
	for _, tab := range controllerTables(t) {
		if tab.Name() == name {
			return tab
		}
	}
	t.Fatalf("no controller table %s", name)
	return nil
}

func TestControllerDepsOnDirectory(t *testing.T) {
	rows := codeDeps(t, controllerTable(t, protocol.DirectoryTable), assignment(t, protocol.AssignVC4))
	if len(rows) == 0 {
		t.Fatal("no dependencies from D")
	}
	// §4.2 R2 must be among them: (idone, remote, home, VC2) ->
	// (mread, home, home, VC4).
	found := false
	for _, r := range rows {
		if r.In == (VAssign{M: "idone", S: "remote", D: "home", VC: "VC2"}) &&
			r.Out == (VAssign{M: "mread", S: "home", D: "home", VC: "VC4"}) {
			found = true
		}
	}
	if !found {
		t.Fatal("R2 dependency row missing from D's dependency table")
	}
}

func TestControllerDepsOnMemory(t *testing.T) {
	rows := codeDeps(t, controllerTable(t, protocol.MemoryTable), assignment(t, protocol.AssignVC4))
	// §4.2 R1: (wb, home, home, VC4) -> (compl, home, home, VC2).
	found := false
	for _, r := range rows {
		if r.In == (VAssign{M: "wb", S: "home", D: "home", VC: "VC4"}) &&
			r.Out == (VAssign{M: "compl", S: "home", D: "home", VC: "VC2"}) {
			found = true
		}
	}
	if !found {
		t.Fatal("R1 dependency row missing from M's dependency table")
	}
}

// TestControllerDepsOnEveryTable checks the code path against the string
// path on every controller table under every assignment.
func TestControllerDepsOnEveryTable(t *testing.T) {
	for _, name := range protocol.AssignmentNames() {
		for _, tab := range controllerTables(t) {
			codeDeps(t, tab, assignment(t, name))
		}
	}
}

// TestFigure4Composition reproduces the §4.2 derivation literally: R2 is
// modified under placement L≠H=R to R2', R1 composed with R2' (ignoring
// messages) yields R3 = (wb, home, home, VC4, mread, home, home, VC4) — a
// VC4 self-cycle — and the symmetric composition yields the VC2 cycle.
func TestFigure4Composition(t *testing.T) {
	r1 := DepRow{
		In:     VAssign{M: "wb", S: "home", D: "home", VC: "VC4"},
		Out:    VAssign{M: "compl", S: "home", D: "home", VC: "VC2"},
		Origin: "M",
	}
	r2 := DepRow{
		In:     VAssign{M: "idone", S: "remote", D: "home", VC: "VC2"},
		Out:    VAssign{M: "mread", S: "home", D: "home", VC: "VC4"},
		Origin: "D",
	}
	var lhr Placement
	for _, p := range Placements() {
		if p.Name == "L!=H=R" {
			lhr = p
		}
	}
	r2p := applyPlacement(r2, lhr)
	if r2p.In.S != "home" {
		t.Fatalf("R2' input source = %s, want home", r2p.In.S)
	}
	// Exact composition must NOT find it (compl != idone).
	if got := Compose([]DepRow{r1}, []DepRow{r2p}, false); len(got) != 0 {
		t.Fatalf("exact composition found %d rows, want 0", len(got))
	}
	// Relaxed composition yields R3.
	got := Compose([]DepRow{r1}, []DepRow{r2p}, true)
	if len(got) != 1 {
		t.Fatalf("relaxed composition rows = %d, want 1", len(got))
	}
	r3 := got[0]
	if r3.In.VC != "VC4" || r3.Out.VC != "VC4" || r3.In.M != "wb" || r3.Out.M != "mread" {
		t.Fatalf("R3 = %s, want (wb,home,home,VC4)->(mread,home,home,VC4)", r3)
	}
	// Symmetric composition yields the VC2 cycle.
	sym := Compose([]DepRow{r2p}, []DepRow{r1}, true)
	if len(sym) != 1 || sym[0].In.VC != "VC2" || sym[0].Out.VC != "VC2" {
		t.Fatalf("symmetric composition = %v", sym)
	}
}

func TestDeadlockStory(t *testing.T) {
	// C4/F4: the §4.2 narrative across the three assignments.
	tables := controllerTables(t)
	assignments := map[string]*rel.Table{}
	for _, name := range protocol.AssignmentNames() {
		assignments[name] = assignment(t, name)
	}
	reports, err := AnalyzeStory(tables, assignments, protocol.AssignmentNames(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	initial := reports[protocol.AssignInitial]
	vc4 := reports[protocol.AssignVC4]
	fixed := reports[protocol.AssignFixed]

	// Initial 4-channel assignment: several cycles, involving the home
	// directory<->memory sharing.
	if !initial.Deadlocked() {
		t.Fatal("initial assignment must have cycles")
	}
	// VC4 assignment: still deadlocked — the Fig. 4 VC2/VC4 cycle.
	if !vc4.Deadlocked() {
		t.Fatal("VC4 assignment must still have the Fig. 4 cycle")
	}
	foundVC4, foundVC2 := false, false
	for _, c := range vc4.Cycles {
		if len(c) == 1 && c[0] == "VC4" {
			foundVC4 = true
		}
		if len(c) == 1 && c[0] == "VC2" {
			foundVC2 = true
		}
	}
	if !foundVC4 || !foundVC2 {
		t.Fatalf("VC4/VC2 self-cycles not found; cycles = %v", vc4.Cycles)
	}
	// The evidence for the VC4 cycle must include the composed R3 row.
	foundR3 := false
	for _, r := range vc4.Graph.Evidence(Edge{From: "VC4", To: "VC4"}) {
		if r.In.M == "wb" && r.Out.M == "mread" {
			foundR3 = true
		}
	}
	if !foundR3 {
		t.Fatal("R3 (wb -> mread on VC4) not among the VC4 cycle evidence")
	}
	// Fixed assignment: deadlock free.
	if fixed.Deadlocked() {
		t.Fatalf("fixed assignment still deadlocks:\n%s", fixed.Graph.Describe())
	}
	if !fixed.Graph.Acyclic() {
		t.Fatal("Acyclic() disagrees with Cycles()")
	}
}

func TestPlacementRelaxationNecessary(t *testing.T) {
	// A2: without quad placements the Fig. 4 cycle is invisible.
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignVC4)
	opts := DefaultOptions()
	opts.NoPlacements = true
	rep, err := Analyze(tables, v, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cycles {
		if len(c) == 1 && c[0] == "VC4" {
			t.Fatal("VC4 self-cycle should require placement merging")
		}
	}
	full, err := Analyze(tables, v, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Cycles) <= len(rep.Cycles) {
		t.Fatalf("placements should reveal more cycles: %d vs %d",
			len(full.Cycles), len(rep.Cycles))
	}
}

func TestExactVsRelaxedComposition(t *testing.T) {
	// The message-agnostic relaxation captures interleavings: it can only
	// add dependencies.
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignVC4)
	exact := DefaultOptions()
	exact.Relaxed = false
	repExact, err := Analyze(tables, v, exact)
	if err != nil {
		t.Fatal(err)
	}
	repRelaxed, err := Analyze(tables, v, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if repRelaxed.Stats.ProtocolRows < repExact.Stats.ProtocolRows {
		t.Fatalf("relaxation lost rows: %d < %d",
			repRelaxed.Stats.ProtocolRows, repExact.Stats.ProtocolRows)
	}
}

func TestClosureSpuriousCycles(t *testing.T) {
	// A1: the abandoned transitive closure finds at least as many cycles
	// (the paper: "excessive number of spurious cycles") at higher cost.
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignVC4)
	pairwise, err := Analyze(tables, v, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Closure = true
	closure, err := Analyze(tables, v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if closure.Stats.Rounds <= 1 {
		t.Fatal("closure did not iterate")
	}
	if closure.Stats.ProtocolRows < pairwise.Stats.ProtocolRows {
		t.Fatal("closure lost dependencies")
	}
	if len(closure.Cycles) < len(pairwise.Cycles) {
		t.Fatalf("closure found fewer cycles: %d < %d",
			len(closure.Cycles), len(pairwise.Cycles))
	}
}

func TestProtocolTableShape(t *testing.T) {
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignVC4)
	rep, err := Analyze(tables, v, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Protocol) != rep.Stats.ProtocolRows {
		t.Fatal("stats/table row mismatch")
	}
	for _, r := range rep.Protocol {
		if r.In.VC == "" || r.Out.VC == "" || r.Origin == "" {
			t.Fatalf("dependency row %s lacks a channel or origin", r)
		}
	}
	if rep.Stats.ControllerRows == 0 || rep.Stats.ComposedRows == 0 {
		t.Fatalf("stats incomplete: %+v", rep.Stats)
	}
}

// TestAnalyzeSpanAttribution checks the per-stage attribution: composition
// time is a part of the analysis time, and the deadlock.analyze span carries
// the composition's row count, atom count and elapsed time.
func TestAnalyzeSpanAttribution(t *testing.T) {
	tables := controllerTables(t)
	c := obs.NewCollector(16)
	opts := DefaultOptions()
	opts.Tracer = c
	rep, err := Analyze(tables, assignment(t, protocol.AssignVC4), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.ComposeElapsed <= 0 || st.ComposeElapsed+st.CycleElapsed > st.Elapsed {
		t.Fatalf("stage times: compose %v + cycles %v vs elapsed %v", st.ComposeElapsed, st.CycleElapsed, st.Elapsed)
	}
	var attrs map[string]string
	for _, sp := range c.Spans() {
		if sp.Name == "deadlock.analyze" {
			attrs = map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	if attrs == nil {
		t.Fatal("no deadlock.analyze span")
	}
	if got := attrs["composed_rows"]; got != strconv.Itoa(st.ComposedRows) {
		t.Errorf("composed_rows = %q, want %d", got, st.ComposedRows)
	}
	if n, err := strconv.Atoi(attrs["atoms"]); err != nil || n <= 0 {
		t.Errorf("atoms = %q", attrs["atoms"])
	}
	if d, err := time.ParseDuration(attrs["compose_elapsed"]); err != nil || d != st.ComposeElapsed {
		t.Errorf("compose_elapsed = %q, want %v", attrs["compose_elapsed"], st.ComposeElapsed)
	}
}

func TestVCGBasics(t *testing.T) {
	rows := []DepRow{
		{In: VAssign{M: "a", S: "x", D: "y", VC: "A"}, Out: VAssign{M: "b", S: "y", D: "z", VC: "B"}, Origin: "t"},
		{In: VAssign{M: "b", S: "y", D: "z", VC: "B"}, Out: VAssign{M: "c", S: "z", D: "x", VC: "C"}, Origin: "t"},
		{In: VAssign{M: "c", S: "z", D: "x", VC: "C"}, Out: VAssign{M: "a", S: "x", D: "y", VC: "A"}, Origin: "t"},
	}
	g := NewVCG(rows)
	if len(g.Nodes()) != 3 || len(g.Edges()) != 3 {
		t.Fatalf("graph shape: %v %v", g.Nodes(), g.Edges())
	}
	cycles := g.Cycles()
	if len(cycles) != 1 || len(cycles[0]) != 3 {
		t.Fatalf("cycles = %v", cycles)
	}
	if g.Acyclic() {
		t.Fatal("cycle missed by Acyclic")
	}
	ev := g.CycleEvidence(cycles[0])
	if len(ev) != 3 {
		t.Fatalf("evidence = %v", ev)
	}
	if !strings.Contains(g.Describe(), "cycle") {
		t.Fatal("Describe missing cycles")
	}
	if !strings.Contains(cycles[0].String(), "->") {
		t.Fatal("cycle rendering broken")
	}
}

func TestVCGAcyclicAndSelfLoop(t *testing.T) {
	dag := NewVCG([]DepRow{
		{In: VAssign{VC: "A"}, Out: VAssign{VC: "B"}},
		{In: VAssign{VC: "B"}, Out: VAssign{VC: "C"}},
	})
	if !dag.Acyclic() || len(dag.Cycles()) != 0 {
		t.Fatal("DAG misclassified")
	}
	if !strings.Contains(dag.Describe(), "deadlock free") {
		t.Fatal("Describe on DAG broken")
	}
	self := NewVCG([]DepRow{{In: VAssign{VC: "A"}, Out: VAssign{VC: "A"}}})
	cycles := self.Cycles()
	if len(cycles) != 1 || len(cycles[0]) != 1 {
		t.Fatalf("self-loop cycles = %v", cycles)
	}
	if self.Acyclic() {
		t.Fatal("self-loop missed")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	tables := controllerTables(t)
	bad := rel.MustNewTable("V", "m", "s")
	if _, err := Analyze(tables, bad, DefaultOptions()); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("err = %v", err)
	}
	noMsg := rel.MustNewTable("X", "foo", "bar")
	v := assignment(t, protocol.AssignVC4)
	if _, err := Analyze([]*rel.Table{noMsg}, v, DefaultOptions()); !errors.Is(err, ErrBadController) {
		t.Fatalf("err = %v", err)
	}
	if _, err := AnalyzeStory(tables, map[string]*rel.Table{}, []string{"missing"}, DefaultOptions()); err == nil {
		t.Fatal("missing assignment must error")
	}
}
