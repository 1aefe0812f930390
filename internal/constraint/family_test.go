package constraint

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// tagFunc is the registered function the random rule conditions call:
// "a" maps to "t", NULL to NULL and any other value to "u".
func tagFunc(args []rel.Value) (rel.Value, error) {
	switch {
	case args[0].IsNull():
		return rel.Null(), nil
	case args[0].Equal(rel.S("a")):
		return rel.S("t"), nil
	}
	return rel.S("u"), nil
}

// ruleGen draws random rule conditions.
type ruleGen struct {
	rng *rand.Rand
}

// lit is a literal from the inputs' value pool, NULL included.
func (g *ruleGen) lit() sqlmini.Expr {
	switch g.rng.Intn(4) {
	case 0:
		return sqlmini.Lit{Val: rel.Null()}
	case 1:
		return sqlmini.Lit{Val: rel.S("b")}
	}
	return sqlmini.Lit{Val: rel.S("a")}
}

// atom is one comparison over a column in cols.
func (g *ruleGen) atom(cols []string) sqlmini.Expr {
	c := sqlmini.Col{Name: cols[g.rng.Intn(len(cols))]}
	switch g.rng.Intn(6) {
	case 0:
		return sqlmini.Binary{Op: "<>", L: c, R: g.lit()}
	case 1:
		return sqlmini.InList{X: c, Set: []sqlmini.Expr{g.lit(), g.lit()}, Negate: g.rng.Intn(3) == 0}
	case 2:
		return sqlmini.IsNull{X: c, Negate: g.rng.Intn(2) == 0}
	case 3:
		return sqlmini.Binary{Op: "=", L: sqlmini.Call{Name: "tag", Args: []sqlmini.Expr{c}}, R: sqlmini.Lit{Val: rel.S("t")}}
	}
	return sqlmini.Binary{Op: "=", L: c, R: g.lit()}
}

// cond is a random condition over cols. Conditions are broad and overlap,
// so first-match priority decides many rows.
func (g *ruleGen) cond(cols []string, depth int) sqlmini.Expr {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return g.atom(cols)
	}
	switch g.rng.Intn(3) {
	case 0:
		return sqlmini.Binary{Op: "AND", L: g.cond(cols, depth-1), R: g.cond(cols, depth-1)}
	case 1:
		return sqlmini.Binary{Op: "OR", L: g.cond(cols, depth-1), R: g.cond(cols, depth-1)}
	}
	return sqlmini.Unary{Op: "NOT", X: g.cond(cols, depth-1)}
}

// conds draws n conditions over cols.
func (g *ruleGen) conds(n int, cols []string) []sqlmini.Expr {
	out := make([]sqlmini.Expr, n)
	for i := range out {
		out[i] = g.cond(cols, 2)
	}
	return out
}

// sets draws each rule's output assignment for one column: a value from
// vals or "NULL", or absent (also noop).
func (g *ruleGen) sets(n int, vals []string) []string {
	out := make([]string, n)
	for i := range out {
		if r := g.rng.Intn(len(vals) + 2); r < len(vals) {
			out[i] = vals[r]
		} else if r == len(vals) {
			out[i] = "NULL"
		}
	}
	return out
}

// ruleChain builds one output column's constraint the way
// protocol.RuleSet.chain does: right-nested ternaries over every rule in
// priority order, one shared `col = v` node per value, NULL (noop) for
// rules that do not set the column and when no rule matches, and a bare
// noop when no rule sets the column at all.
func ruleChain(col string, conds []sqlmini.Expr, sets []string) sqlmini.Expr {
	target := sqlmini.Col{Name: col}
	nodes := map[string]sqlmini.Expr{}
	set := func(v string) sqlmini.Expr {
		if e, ok := nodes[v]; ok {
			return e
		}
		val := rel.Null()
		if v != "NULL" && v != "" {
			val = rel.S(v)
		}
		e := sqlmini.Expr(sqlmini.Binary{Op: "=", L: target, R: sqlmini.Lit{Val: val}})
		nodes[v] = e
		return e
	}
	noop := set("NULL")
	used := false
	for _, v := range sets {
		used = used || (v != "" && v != "NULL")
	}
	if !used {
		return noop
	}
	e := noop
	for i := len(conds) - 1; i >= 0; i-- {
		then := noop
		if sets[i] != "" {
			then = set(sets[i])
		}
		e = sqlmini.Ternary{Cond: conds[i], Then: then, Else: e}
	}
	return e
}

// reparsed returns conds as independently parsed trees, the way a spec
// file holds them: structurally equal to conds, sharing no nodes.
func reparsed(t testing.TB, s *Spec, conds []sqlmini.Expr) []sqlmini.Expr {
	out := make([]sqlmini.Expr, len(conds))
	for i, c := range conds {
		e, err := sqlmini.ParseExpr(c.String())
		if err != nil {
			t.Fatalf("reparsing %s: %v", c, err)
		}
		out[i] = sqlmini.ResolveSymbols(e, s.HasColumn)
	}
	return out
}

// retuned returns conds with one literal changed in the first condition
// that has one, so the sequence differs from conds in exactly one place.
func retuned(conds []sqlmini.Expr) ([]sqlmini.Expr, bool) {
	out := append([]sqlmini.Expr(nil), conds...)
	for i, c := range conds {
		if e, ok := retuneLit(c); ok {
			out[i] = e
			return out, true
		}
	}
	return nil, false
}

// retuneLit replaces the first literal of e (depth first) with another
// value of the pool.
func retuneLit(e sqlmini.Expr) (sqlmini.Expr, bool) {
	switch x := e.(type) {
	case sqlmini.Lit:
		if x.Val.Equal(rel.S("a")) {
			return sqlmini.Lit{Val: rel.S("b")}, true
		}
		return sqlmini.Lit{Val: rel.S("a")}, true
	case sqlmini.Unary:
		if y, ok := retuneLit(x.X); ok {
			x.X = y
			return x, true
		}
	case sqlmini.Binary:
		if y, ok := retuneLit(x.L); ok {
			x.L = y
			return x, true
		}
		if y, ok := retuneLit(x.R); ok {
			x.R = y
			return x, true
		}
	case sqlmini.InList:
		set := append([]sqlmini.Expr(nil), x.Set...)
		for i, m := range set {
			if y, ok := retuneLit(m); ok {
				set[i] = y
				x.Set = set
				return x, true
			}
		}
	}
	return nil, false
}

// chainSpec is a random spec holding every kind of constraint the family
// recognizer must tell apart, with the column names of each role.
type chainSpec struct {
	spec           *Spec
	famA           []string       // outputs whose chains share condition nodes
	famB           []string       // outputs whose chains share conditions parsed apart
	condsA, condsB []sqlmini.Expr // the two families' condition sequences
	retune         string         // famA's conditions with one literal changed
	single         string         // an input column constrained by a chain of its own
	plain          string         // an input column constrained by a non-chain expression
}

// randomChainSpec builds a seeded chainSpec: 3–5 inputs and 5 outputs,
// each with one or two values plus NULL, and rule sets of 2–30 rules.
func randomChainSpec(t testing.TB, rng *rand.Rand) chainSpec {
	s := NewSpec("chains")
	s.RegisterFunc("tag", tagFunc)
	nin := 3 + rng.Intn(3)
	inputs := make([]string, nin)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("i%d", i)
		mustDo(t, s.AddInput(inputs[i], []string{"a", "b"}[:1+rng.Intn(2)]...))
	}
	cs := chainSpec{spec: s, famA: []string{"a0", "a1"}, famB: []string{"b0", "b1"}, retune: "x0",
		single: inputs[nin-1], plain: inputs[1]}
	outVals := map[string][]string{}
	for _, col := range []string{"a0", "b0", "a1", "x0", "b1"} {
		outVals[col] = []string{"p", "q"}[:1+rng.Intn(2)]
		mustDo(t, s.AddOutput(col, outVals[col]...))
	}
	g := &ruleGen{rng: rng}

	// Family A: chains over shared condition nodes, and one chain whose
	// sequence differs from theirs in one literal.
	condsA := g.conds(2+rng.Intn(29), inputs)
	tuned, ok := retuned(condsA)
	if !ok {
		condsA[0] = sqlmini.Binary{Op: "=", L: sqlmini.Col{Name: inputs[0]}, R: sqlmini.Lit{Val: rel.S("a")}}
		tuned, _ = retuned(condsA)
	}
	cs.condsA = condsA
	for _, col := range cs.famA {
		mustDo(t, s.ConstrainExpr(col, ruleChain(col, condsA, forceUsed(g.sets(len(condsA), outVals[col])))))
	}
	mustDo(t, s.ConstrainExpr(cs.retune, ruleChain(cs.retune, tuned, forceUsed(g.sets(len(tuned), outVals[cs.retune])))))

	// Family B: each member's conditions parsed on their own.
	condsB := g.conds(2+rng.Intn(29), inputs)
	cs.condsB = condsB
	for _, col := range cs.famB {
		mustDo(t, s.ConstrainExpr(col, ruleChain(col, reparsed(t, s, condsB), forceUsed(g.sets(len(condsB), outVals[col])))))
	}

	// A single-member chain on the last input over the earlier ones; half
	// the time one of its conditions reads the constrained column itself,
	// which ends the stable run there (at the first arm: no family).
	condsS := g.conds(2+rng.Intn(6), inputs[:nin-1])
	if rng.Intn(2) == 0 {
		condsS[rng.Intn(len(condsS))] = g.atom(inputs[nin-1:])
	}
	mustDo(t, s.ConstrainExpr(cs.single, ruleChain(cs.single, condsS, forceUsed(g.sets(len(condsS), []string{"a", "b"})))))

	// A non-chain constraint on the second input.
	mustDo(t, s.ConstrainExpr(cs.plain, sqlmini.Binary{Op: "OR", L: g.atom(inputs[1:2]), R: g.cond(inputs[:2], 1)}))
	return cs
}

// forceUsed makes sure a chain has arms: a column no rule sets compiles to
// a bare noop, which is not a chain.
func forceUsed(sets []string) []string {
	for _, v := range sets {
		if v != "" && v != "NULL" {
			return sets
		}
	}
	sets[0] = "p"
	return sets
}

// crossProductSolve filters the spec's full cross product, in the
// solvers' row order, through every constraint compiled whole by
// CompileVec — the compiled form sqlmini's differential tests check
// against its tree-walking interpreter — one row at a time, each row a
// batch of one lane.
func crossProductSolve(t testing.TB, s *Spec) *rel.Table {
	t.Helper()
	ev := s.evaluator()
	cols := s.Columns()
	names := s.ColumnNames()
	colIdx := make(map[string]int, len(names))
	for i, n := range names {
		colIdx[n] = i
	}
	var preds []*sqlmini.VecPred
	for _, col := range names {
		if e := s.Constraint(col); e != nil {
			p, err := ev.CompileVec(e, colIdx)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
		}
	}
	domains := make([][]rel.Value, len(cols))
	for i, c := range cols {
		domains[i] = c.Domain()
	}
	out, err := rel.NewTable(s.Name, names...)
	if err != nil {
		t.Fatal(err)
	}
	dict := rel.SharedDict()
	row := make([]rel.Value, len(cols))
	crow := make([]uint32, len(cols))
	lanes := make([][]uint32, len(cols)) // crow as a batch of one lane
	for i := range lanes {
		lanes[i] = crow[i : i+1]
	}
	var walk func(i int)
	walk = func(i int) {
		if i == len(cols) {
			for _, p := range preds {
				kept, err := p.EvalVec(lanes, []uint32{0})
				if err != nil {
					t.Fatal(err)
				}
				if len(kept) == 0 {
					return
				}
			}
			if err := out.InsertRow(row); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, v := range domains[i] {
			row[i], crow[i] = v, dict.Code(v)
			walk(i + 1)
		}
	}
	walk(0)
	return out
}

// familyOfCol returns the family of col's compiled constraint.
func familyOfCol(t testing.TB, s *Spec, col string) *family {
	t.Helper()
	cc, err := s.compiledConstraints()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cc {
		if c.col == col {
			return c.fam
		}
	}
	t.Fatalf("no compiled constraint for %s", col)
	return nil
}

// TestQuickSharedChainsMatchOracles is the property test for rule-chain
// families: on seeded random rule sets, solving with shared selections
// (at one and at four workers) must give exactly the rows of MonolithicOpts, which
// evaluates every chain whole, and the rows a compiled filter keeps from
// the cross product. Each spec also pins how chains group: members
// sharing nodes and members parsed apart each form one family, a chain
// one literal away forms its own, and a non-chain constraint joins none.
func TestQuickSharedChainsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 30; trial++ {
		cs := randomChainSpec(t, rng)
		s := cs.spec
		famA, famB := familyOfCol(t, s, cs.famA[0]), familyOfCol(t, s, cs.famB[0])
		switch {
		case famA == nil || familyOfCol(t, s, cs.famA[1]) != famA:
			t.Fatalf("trial %d: family A's chains did not form one family", trial)
		case famB == nil || familyOfCol(t, s, cs.famB[1]) != famB:
			t.Fatalf("trial %d: family B's independently parsed chains did not form one family", trial)
		case famB == famA && !sameSequence(cs.condsA, cs.condsB):
			t.Fatalf("trial %d: different condition sequences merged", trial)
		case familyOfCol(t, s, cs.retune) == famA || familyOfCol(t, s, cs.retune) == nil:
			t.Fatalf("trial %d: a chain one literal away from family A joined it", trial)
		case familyOfCol(t, s, cs.plain) != nil:
			t.Fatalf("trial %d: a non-chain constraint joined a family", trial)
		case !famA.memo || !famB.memo:
			t.Fatalf("trial %d: families firing at several steps keep no memo", trial)
		}
		if f := familyOfCol(t, s, cs.single); f != nil && (f.memo || f == famA || f == famB) {
			t.Fatalf("trial %d: the single-member chain shares a family or a memo", trial)
		}

		want := tableBytes(t, crossProductSolve(t, s))
		mono, _, err := MonolithicOpts(s, Options{})
		if err != nil {
			t.Fatalf("trial %d: monolithic: %v", trial, err)
		}
		if got := tableBytes(t, mono); got != want {
			t.Fatalf("trial %d: monolithic disagrees with the cross-product filter:\n%s\nwant:\n%s", trial, got, want)
		}
		for _, workers := range []int{1, 4} {
			tab, st, err := SolveOpts(s, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if got := tableBytes(t, tab); got != want {
				t.Fatalf("trial %d workers=%d: solve disagrees with the oracles:\n%s\nwant:\n%s", trial, workers, got, want)
			}
			if tab.NumRows() > 0 && st.ArmSelections == 0 {
				t.Fatalf("trial %d workers=%d: no arm selections recorded", trial, workers)
			}
		}
	}
}

// sameSequence reports whether two condition sequences are structurally
// equal.
func sameSequence(a, b []sqlmini.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sqlmini.EqualExpr(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestIncrementalMemberLeavesFamily re-constrains one family member
// between incremental solves so that its chain no longer shares the
// family's conditions: the re-solve must equal a fresh solve, and the
// member must have left the family.
func TestIncrementalMemberLeavesFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		cs := randomChainSpec(t, rng)
		s := cs.spec
		inc := NewIncrementalSolver(s, Options{Workers: 2})
		if _, _, err := inc.Solve(); err != nil {
			t.Fatal(err)
		}
		g := &ruleGen{rng: rng}
		leaver := cs.famA[1]
		conds := g.conds(2+rng.Intn(10), s.InputNames())
		mustDo(t, s.ConstrainExpr(leaver, ruleChain(leaver, conds, forceUsed(g.sets(len(conds), []string{"p"})))))
		if f := familyOfCol(t, s, leaver); f == familyOfCol(t, s, cs.famA[0]) && !sameSequence(f.conds, conds) {
			t.Fatalf("trial %d: re-constrained member still in its old family", trial)
		}
		got, st, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if st.ReusedSteps == 0 {
			t.Fatalf("trial %d: re-solve reused no steps", trial)
		}
		fresh, _, err := SolveOpts(s, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tableBytes(t, got) != tableBytes(t, fresh) {
			t.Fatalf("trial %d: incremental re-solve differs from a fresh solve", trial)
		}
	}
}

// TestArmSelectionsOncePerRow pins the saving the families exist for: k
// output chains over one condition sequence, fired at k steps over n
// distinct input rows, select n arms in all, not k·n, at one worker and
// at four.
func TestArmSelectionsOncePerRow(t *testing.T) {
	const k = 3
	s := NewSpec("family")
	s.RegisterFunc("tag", tagFunc)
	inputs := []string{"i0", "i1", "i2", "i3"}
	n := 1
	for _, in := range inputs {
		mustDo(t, s.AddInput(in, "a", "b", "c"))
		n *= 4 // three values and NULL, none pruned
	}
	rng := rand.New(rand.NewSource(5))
	g := &ruleGen{rng: rng}
	conds := g.conds(20, inputs)
	// One condition reads every input, so each input row is its own
	// projection onto the family's columns.
	conds[7] = sqlmini.Binary{Op: "OR", L: conds[7], R: sqlmini.Binary{Op: "AND",
		L: sqlmini.Binary{Op: "AND", L: g.atom(inputs[:1]), R: g.atom(inputs[1:2])},
		R: sqlmini.Binary{Op: "AND", L: g.atom(inputs[2:3]), R: g.atom(inputs[3:])}}}
	for i := 0; i < k; i++ {
		col := fmt.Sprintf("o%d", i)
		mustDo(t, s.AddOutput(col, "p", "q"))
		mustDo(t, s.ConstrainExpr(col, ruleChain(col, conds, forceUsed(g.sets(len(conds), []string{"p", "q"})))))
	}
	for _, workers := range []int{1, 4} {
		tab, st, err := SolveOpts(s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != n {
			t.Fatalf("workers=%d: %d rows, want %d (one output assignment per input row)", workers, tab.NumRows(), n)
		}
		if st.ArmSelections != uint64(n) {
			t.Fatalf("workers=%d: ArmSelections = %d, want %d (not %d·%d)", workers, st.ArmSelections, n, k, n)
		}
		mono, _, err := MonolithicOpts(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tableBytes(t, tab) != tableBytes(t, mono) {
			t.Fatalf("workers=%d: solve differs from MonolithicOpts", workers)
		}
	}
}

// TestConcurrentSolvesShareFamilies runs solves of one spec concurrently:
// the compiled families are shared and each solve keeps its own arm memo.
func TestConcurrentSolvesShareFamilies(t *testing.T) {
	cs := randomChainSpec(t, rand.New(rand.NewSource(8)))
	want, _, err := Solve(cs.spec)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	got := make([]*rel.Table, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = SolveOpts(cs.spec, Options{Workers: 2})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if tableBytes(t, got[i]) != tableBytes(t, want) {
			t.Fatalf("concurrent solve %d differs", i)
		}
	}
}

// TestFamilySplit pins where the recognizer splits chains: a family is
// the maximal run of leading conditions that do not read the constraint's
// fire column. A chain extending a family's run by one more stable
// condition (compiled after that family exists) and a chain stopping one
// short of it each get a family of their own, while chains with an equal
// run join, whatever their branches — also when the run ends at a
// condition that reads the chain's own column.
func TestFamilySplit(t *testing.T) {
	s := NewSpec("split")
	for _, in := range []string{"a", "b", "c"} {
		mustDo(t, s.AddInput(in, "x", "y"))
	}
	for _, out := range []string{"o1", "o2", "wide", "short", "self"} {
		mustDo(t, s.AddOutput(out, "p", "q"))
	}
	mustDo(t, s.Constrain("o1", `a = x ? o1 = p : b = y ? o1 = q : o1 = NULL`))
	mustDo(t, s.Constrain("o2", `a = x ? o2 = q : b = y ? o2 = NULL : o2 = p`))
	mustDo(t, s.Constrain("wide", `a = x ? wide = p : b = y ? wide = q : c = x ? wide = p : wide = NULL`))
	mustDo(t, s.Constrain("short", `a = x ? short = p : short = q`))
	mustDo(t, s.Constrain("self", `a = x ? self = p : self = q ? b = y : self = NULL`))
	want := map[string]int{"o1": 2, "o2": 2, "wide": 3, "short": 1, "self": 1}
	for col, k := range want {
		if f := familyOfCol(t, s, col); f == nil || len(f.conds) != k {
			t.Fatalf("%s: family %v, want one of %d conditions", col, f, k)
		}
	}
	if familyOfCol(t, s, "o1") != familyOfCol(t, s, "o2") {
		t.Fatal("o1 and o2 share their conditions but not a family")
	}
	if familyOfCol(t, s, "short") != familyOfCol(t, s, "self") {
		t.Fatal("short and self share their one stable condition but not a family")
	}
	for _, col := range []string{"wide", "short"} {
		if familyOfCol(t, s, col) == familyOfCol(t, s, "o1") {
			t.Fatalf("%s joined the family of a different run", col)
		}
	}
	want2, _, err := MonolithicOpts(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if tableBytes(t, got) != tableBytes(t, want2) {
		t.Fatal("solve differs from MonolithicOpts")
	}
}

// errTagB is what tagB returns on "b".
var errTagB = errors.New("tagB fails on b")

// tagB is tagFunc that fails on "b".
func tagB(args []rel.Value) (rel.Value, error) {
	if args[0].Equal(rel.S("b")) {
		return rel.Null(), errTagB
	}
	return tagFunc(args)
}

// TestFamilySelectionErrors checks that a failing condition surfaces
// exactly where the whole chain would fail: a selection error is kept and
// raised only when the member is evaluated for that group, so a group an
// earlier constraint of the same step has already emptied never raises
// it. The wide shape has 3,125 distinct projections onto the family's
// columns, so the memo holds many arms and errors side by side (some rows
// with i0 = b match an arm before the failing condition), and at four
// workers its group sweep runs in parallel.
func TestFamilySelectionErrors(t *testing.T) {
	shapes := []struct {
		name   string
		inputs []string
		vals   []string
		chain  string // %[1]s is the constrained column
	}{
		{"one input", []string{"i0"}, []string{"a", "b"},
			`i0 IS NULL ? %[1]s = q : tag(i0) = 't' ? %[1]s = p : %[1]s = NULL`},
		{"wide", []string{"i0", "i1", "i2", "i3", "i4"}, []string{"a", "b", "c", "d"},
			`i0 IS NULL ? %[1]s = q : i1 = a and i2 = b ? %[1]s = p : tag(i0) = 't' ? %[1]s = p : ` +
				`i3 IN (a, c) or i4 = d ? %[1]s = q : %[1]s = NULL`},
	}
	for _, sh := range shapes {
		build := func(guard bool) *Spec {
			s := NewSpec("errs")
			s.RegisterFunc("tag", tagB)
			for _, in := range sh.inputs {
				mustDo(t, s.AddInput(in, sh.vals...))
			}
			mustDo(t, s.AddOutput("o", "p", "q"))
			mustDo(t, s.AddOutput("o2", "p", "q"))
			for _, col := range []string{"o", "o2"} {
				mustDo(t, s.Constrain(col, fmt.Sprintf(sh.chain, col)))
			}
			if guard {
				// Fires at o's step ahead of o's own chain (column order) and
				// empties every group with i0 = b.
				mustDo(t, s.Constrain("i0", `i0 = b ? o = q and o <> q : o IS NOT NULL or o IS NULL`))
			}
			return s
		}
		if _, _, err := MonolithicOpts(build(false), Options{}); !errors.Is(err, errTagB) {
			t.Fatalf("%s: monolithic error %v, want %v", sh.name, err, errTagB)
		}
		s := build(true)
		want, _, err := MonolithicOpts(s, Options{})
		if err != nil {
			t.Fatalf("%s: guarded monolithic: %v", sh.name, err)
		}
		for _, workers := range []int{1, 4} {
			if _, _, err := SolveOpts(build(false), Options{Workers: workers}); !errors.Is(err, errTagB) {
				t.Fatalf("%s workers=%d: solve error %v, want %v", sh.name, workers, err, errTagB)
			}
			got, st, err := SolveOpts(s, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: guarded solve: %v", sh.name, workers, err)
			}
			if tableBytes(t, got) != tableBytes(t, want) || got.NumRows() == 0 {
				t.Fatalf("%s workers=%d: guarded solve gives %d rows, monolithic %d", sh.name, workers, got.NumRows(), want.NumRows())
			}
			// One selection per input row for the family, memoized from o's
			// step to o2's, and one per group of o's step (again one per
			// input row) for the guard, a one-member chain firing there only.
			if n := uint64(2 * pow(len(sh.vals)+1, len(sh.inputs))); st.ArmSelections != n {
				t.Fatalf("%s workers=%d: ArmSelections = %d, want %d", sh.name, workers, st.ArmSelections, n)
			}
		}
	}
}

// pow is b to the e.
func pow(b, e int) int {
	n := 1
	for ; e > 0; e-- {
		n *= b
	}
	return n
}
