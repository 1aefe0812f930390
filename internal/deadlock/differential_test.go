package deadlock

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// The differential suite: the code path (Analyze) against the string path
// it replaced (oracleAnalyze), row for row, on every intermediate V of the
// repair loop, on seeded V mutations, and on controller tables and V rows
// holding NULL and non-string cells, in every golden configuration. The
// closure configuration skips inputs derived from initial4, whose closure
// rounds take the string path about a second each.

// diffConfigs are the golden configurations.
var diffConfigs = []struct {
	name string
	set  func(*Options)
}{
	{"default", func(*Options) {}},
	{"noplacements", func(o *Options) { o.NoPlacements = true }},
	{"exact", func(o *Options) { o.Relaxed = false }},
	{"workers1", func(o *Options) { o.Workers = 1 }},
	{"closure", func(o *Options) { o.Closure = true }},
}

// checkConfigs runs checkAgainstOracle in every golden configuration —
// closure only when asked — and, when sql is set, compares the default
// report with the literal-SQL method.
func checkConfigs(t *testing.T, label string, controllers []*rel.Table, v *rel.Table, closure, sql bool) {
	t.Helper()
	for _, c := range diffConfigs {
		if c.name == "closure" && !closure {
			continue
		}
		opts := DefaultOptions()
		c.set(&opts)
		rep := checkAgainstOracle(t, label+"/"+c.name, controllers, v, opts)
		if rep != nil && sql && c.name == "default" {
			checkSQLAgrees(t, label, controllers, v, rep)
		}
	}
}

// checkAgainstOracle analyzes v on both paths under opts and compares the
// protocol rows (order and origins included), the edges and the evidence
// behind every edge, and every Stats count. Both paths must fail alike
// when one does.
func checkAgainstOracle(t *testing.T, label string, controllers []*rel.Table, v *rel.Table, opts Options) *Report {
	t.Helper()
	rep, err := Analyze(controllers, v, opts)
	want, werr := oracleAnalyze(controllers, v, opts)
	if err != nil || werr != nil {
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: error %v, oracle %v", label, err, werr)
		}
		return nil
	}
	if len(rep.Protocol) != len(want.rows) {
		t.Fatalf("%s: %d protocol rows, oracle %d", label, len(rep.Protocol), len(want.rows))
	}
	for i := range want.rows {
		if rep.Protocol[i] != want.rows[i] {
			t.Fatalf("%s: protocol row %d = %s, oracle %s", label, i, rep.Protocol[i], want.rows[i])
		}
	}
	evidence := map[Edge][]DepRow{}
	var edges []Edge
	for _, r := range want.rows {
		e := Edge{From: r.In.VC, To: r.Out.VC}
		if _, ok := evidence[e]; !ok {
			edges = append(edges, e)
		}
		evidence[e] = append(evidence[e], r)
	}
	got := rep.Graph.Edges()
	if len(got) != len(edges) {
		t.Fatalf("%s: %d edges, oracle %d", label, len(got), len(edges))
	}
	for _, e := range got {
		ev, wev := rep.Graph.Evidence(e), evidence[e]
		if len(ev) != len(wev) {
			t.Fatalf("%s: edge %s has %d evidence rows, oracle %d", label, e, len(ev), len(wev))
		}
		for i := range wev {
			if ev[i] != wev[i] {
				t.Fatalf("%s: edge %s evidence %d = %s, oracle %s", label, e, i, ev[i], wev[i])
			}
		}
	}
	nodes := map[string]bool{}
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
	}
	ws := want.stats
	ws.Nodes, ws.Edges, ws.Cycles = len(nodes), len(edges), len(NewVCG(want.rows).Cycles())
	if gc, wc := countsOf(rep.Stats), countsOf(ws); gc != wc {
		t.Fatalf("%s: counts %+v, oracle %+v", label, gc, wc)
	}
	return rep
}

// checkSQLAgrees compares the default-configuration report with the
// literal-SQL method's edges and cycles.
func checkSQLAgrees(t *testing.T, label string, controllers []*rel.Table, v *rel.Table, rep *Report) {
	t.Helper()
	sqlRep, err := AnalyzeSQL(controllers, v, nil)
	if err != nil {
		t.Fatalf("%s: SQL: %v", label, err)
	}
	if got, want := fmt.Sprint(rep.Graph.Edges()), fmt.Sprint(sqlRep.Graph.Edges()); got != want {
		t.Fatalf("%s: edges %s, SQL %s", label, got, want)
	}
	if got, want := fmt.Sprint(rep.Cycles), fmt.Sprint(sqlRep.Cycles); got != want {
		t.Fatalf("%s: cycles %s, SQL %s", label, got, want)
	}
}

// replayRepair returns V before each action of a repair run and after the
// last: moves reassign the hop's rows, dedications delete them.
func replayRepair(t *testing.T, v *rel.Table, actions []RepairAction) []*rel.Table {
	t.Helper()
	cur := v.Clone().SetName("V")
	out := []*rel.Table{cur}
	for _, a := range actions {
		next := cur.Clone()
		var gone []uint32
		for i := 0; i < next.NumRows(); i++ {
			if next.Get(i, "m").Str() != a.M || next.Get(i, "s").Str() != a.S || next.Get(i, "d").Str() != a.D {
				continue
			}
			if a.Kind == "dedicate" {
				gone = append(gone, uint32(i))
			} else if err := next.Set(i, "v", rel.S(a.NewVC)); err != nil {
				t.Fatal(err)
			}
		}
		next.DeleteRows(gone)
		cur = next
		out = append(out, cur)
	}
	return out
}

// TestCodePathMatchesOracleOnRepair runs every intermediate V of the repair
// loop from initial4 (18 actions) and vc4 (6 actions) on both paths in
// every golden configuration, and against the SQL method by default.
func TestCodePathMatchesOracleOnRepair(t *testing.T) {
	tables := controllerTables(t)
	for _, name := range []string{protocol.AssignInitial, protocol.AssignVC4} {
		v := assignment(t, name)
		res, err := Repair(tables, v, DefaultOptions(), 64)
		if err != nil {
			t.Fatal(err)
		}
		steps := replayRepair(t, v, res.Actions)
		if got := vDigest(steps[len(steps)-1]); got != vDigest(res.Final) {
			t.Fatalf("%s: replayed final V %s, Repair's %s", name, got, vDigest(res.Final))
		}
		for i, step := range steps {
			checkConfigs(t, fmt.Sprintf("%s step %d", name, i), tables, step, name != protocol.AssignInitial, true)
		}
	}
}

// mutateV applies one seeded edit to a copy of V: move a hop to an
// existing or a fresh channel, dedicate a hop, or swap two hops' channels.
func mutateV(rng *rand.Rand, v *rel.Table) (*rel.Table, string) {
	out := v.Clone().SetName("V")
	i, j := rng.Intn(out.NumRows()), rng.Intn(out.NumRows())
	vi, vj := out.Get(i, "v"), out.Get(j, "v")
	switch rng.Intn(4) {
	case 0:
		out.Set(i, "v", vj)
		return out, fmt.Sprintf("move %d to %s", i, vj)
	case 1:
		fresh := rel.S(fmt.Sprintf("VCX%d", rng.Intn(3)))
		out.Set(i, "v", fresh)
		return out, fmt.Sprintf("move %d to %s", i, fresh)
	case 2:
		out.DeleteRows([]uint32{uint32(i)})
		return out, fmt.Sprintf("dedicate %d", i)
	default:
		out.Set(i, "v", vj)
		out.Set(j, "v", vi)
		return out, fmt.Sprintf("swap %d %d", i, j)
	}
}

// TestCodePathMatchesOracleOnMutatedV runs seeded V mutations of every
// assignment on both paths in every golden configuration, and against the
// SQL method by default.
func TestCodePathMatchesOracleOnMutatedV(t *testing.T) {
	tables := controllerTables(t)
	rng := rand.New(rand.NewSource(23))
	for _, name := range protocol.AssignmentNames() {
		for trial := 0; trial < 6; trial++ {
			v := assignment(t, name)
			var edits []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				var e string
				v, e = mutateV(rng, v)
				edits = append(edits, e)
			}
			checkConfigs(t, fmt.Sprintf("%s %v", name, edits), tables, v, name != protocol.AssignInitial, true)
		}
	}
}

// scramble returns a copy of t with about one in eight cells of its
// message, source and destination columns set to NULL, an integer or the
// empty string.
func scramble(rng *rand.Rand, t *rel.Table) *rel.Table {
	out := t.Clone()
	in, outs, err := msgGroups(t)
	if err != nil {
		panic(err)
	}
	name := t.ColumnsRef()
	for _, g := range append(outs, in) {
		for _, col := range []int{g.m, g.s, g.d} {
			for i := 0; i < out.NumRows(); i++ {
				if rng.Intn(8) != 0 {
					continue
				}
				cell := []rel.Value{rel.Null(), rel.I(int64(rng.Intn(3))), rel.S("")}[rng.Intn(3)]
				if err := out.Set(i, name[col], cell); err != nil {
					panic(err)
				}
			}
		}
	}
	return out
}

// TestCodePathMatchesOracleOnOddCells runs controller tables holding NULL,
// integer and empty-string cells in their message, source and destination
// columns, and V tables with a non-string channel, on both paths in every
// golden configuration.
func TestCodePathMatchesOracleOnOddCells(t *testing.T) {
	tables := controllerTables(t)
	rng := rand.New(rand.NewSource(7))
	odd := make([]*rel.Table, len(tables))
	for i, tab := range tables {
		odd[i] = scramble(rng, tab)
	}
	vc4 := assignment(t, protocol.AssignVC4)
	untracked := vc4.Clone().SetName("V")
	untracked.Set(0, "v", rel.I(7))
	extra := vc4.Clone().SetName("V")
	extra.MustInsert(rel.S("nosuch"), rel.S("home"), rel.S("home"), rel.I(7))
	conflict := vc4.Clone().SetName("V")
	conflict.MustInsert(vc4.Get(0, "m"), vc4.Get(0, "s"), vc4.Get(0, "d"), rel.B(true))
	for _, tc := range []struct {
		name    string
		tables  []*rel.Table
		v       *rel.Table
		closure bool
	}{
		{"odd-cells/vc4", odd, vc4, true},
		{"odd-cells/initial4", odd, assignment(t, protocol.AssignInitial), false},
		{"untracked-v", tables, untracked, true},
		{"untracked-v/odd-cells", odd, untracked, true},
		{"extra-non-string-v", tables, extra, true},
		{"conflicting-non-string-v", tables, conflict, true},
	} {
		checkConfigs(t, tc.name, tc.tables, tc.v, tc.closure, false)
	}
	if _, err := Analyze(tables, conflict, DefaultOptions()); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("conflicting V: err = %v", err)
	}
}

// TestNewAssignmentMatchesOracle checks that NewAssignment returns the
// string path's error, text included, on malformed V tables, and the same
// channel for every hop of a well-formed one.
func TestNewAssignmentMatchesOracle(t *testing.T) {
	row := func(cells ...rel.Value) *rel.Table {
		v := rel.MustNewTable("V", "m", "s", "d", "v")
		v.MustInsert(rel.S("x"), rel.S("local"), rel.S("home"), rel.S("VC0"))
		v.MustInsert(cells...)
		return v
	}
	for name, v := range map[string]*rel.Table{
		"missing column":       rel.MustNewTable("V", "m", "s", "d"),
		"NULL message":         row(rel.Null(), rel.S("local"), rel.S("home"), rel.S("VC0")),
		"empty source":         row(rel.S("y"), rel.S(""), rel.S("home"), rel.S("VC0")),
		"integer destination":  row(rel.S("y"), rel.S("local"), rel.I(3), rel.S("VC0")),
		"NULL channel":         row(rel.S("y"), rel.S("local"), rel.S("home"), rel.Null()),
		"conflicting channel":  row(rel.S("x"), rel.S("local"), rel.S("home"), rel.S("VC1")),
		"string vs non-string": row(rel.S("x"), rel.S("local"), rel.S("home"), rel.I(1)),
		"repeated hop":         row(rel.S("x"), rel.S("local"), rel.S("home"), rel.S("VC0")),
		"untracked hop":        row(rel.S("y"), rel.S("local"), rel.S("home"), rel.I(1)),
		"empty string channel": row(rel.S("y"), rel.S("local"), rel.S("home"), rel.S("")),
		"boolean channel":      row(rel.S("y"), rel.S("local"), rel.S("home"), rel.B(false)),
		"the story's initial4": assignment(t, protocol.AssignInitial),
		"the story's fixed":    assignment(t, protocol.AssignFixed),
		"integer message":      row(rel.I(5), rel.S("local"), rel.S("home"), rel.S("VC0")),
	} {
		a, err := NewAssignment(v)
		want, werr := oracleAssignment(v)
		if err != nil || werr != nil {
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Errorf("%s: error %v, oracle %v", name, err, werr)
			}
			continue
		}
		if len(a.vc) != len(want) {
			t.Errorf("%s: %d hops, oracle %d", name, len(a.vc), len(want))
		}
		for k, vc := range want {
			if got := a.Channel(k.M, k.S, k.D); got != vc {
				t.Errorf("%s: %v rides %q, oracle %q", name, k, got, vc)
			}
		}
	}
	// A second non-string channel for an untracked hop is no conflict.
	v := rel.MustNewTable("V", "m", "s", "d", "v")
	v.MustInsert(rel.S("y"), rel.S("local"), rel.S("home"), rel.I(1))
	v.MustInsert(rel.S("y"), rel.S("local"), rel.S("home"), rel.I(2))
	if _, err := NewAssignment(v); err != nil {
		t.Errorf("two untracked channels: err = %v", err)
	}
	if _, err := oracleAssignment(v); err != nil {
		t.Errorf("two untracked channels: oracle err = %v", err)
	}
}
