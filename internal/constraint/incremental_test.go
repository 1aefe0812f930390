package constraint

import (
	"strings"
	"testing"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// tableBytes renders a table for byte-for-byte comparison.
func tableBytes(t testing.TB, tab *rel.Table) string {
	t.Helper()
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestIncrementalSolverFullReuse(t *testing.T) {
	spec := figure3Spec(t)
	inc := NewIncrementalSolver(spec, Options{})

	t1, st1, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st1.ReusedSteps != 0 || st1.Steps != len(spec.Columns()) {
		t.Fatalf("first solve: reused=%d steps=%d", st1.ReusedSteps, st1.Steps)
	}
	want, _, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := tableBytes(t, t1), tableBytes(t, want); got != exp {
		t.Fatalf("incremental first solve diverged from Solve:\n%s\nvs\n%s", got, exp)
	}

	t2, st2, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if t2 != t1 {
		t.Fatal("unchanged spec: expected the same table pointer back")
	}
	if st2.ReusedSteps != len(spec.Columns()) || st2.Candidates != 0 {
		t.Fatalf("unchanged spec: reused=%d candidates=%d", st2.ReusedSteps, st2.Candidates)
	}
}

func TestIncrementalSolverConstraintEdit(t *testing.T) {
	spec := figure3Spec(t)
	inc := NewIncrementalSolver(spec, Options{})
	if _, _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}

	// Re-constrain memmsg (fires at step 5 of 8): the input steps and
	// locmsg must replay from the memo, memmsg onward re-executes.
	mustDo(t, spec.Constrain("memmsg", `memmsg = NULL`))
	got, st, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedSteps == 0 || st.ReusedSteps >= len(spec.Columns()) {
		t.Fatalf("ReusedSteps = %d, want a proper prefix", st.ReusedSteps)
	}
	want, _, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := tableBytes(t, got), tableBytes(t, want); g != w {
		t.Fatalf("after constraint edit, incremental diverged:\n%s\nvs\n%s", g, w)
	}
}

func TestIncrementalSolverColumnAppend(t *testing.T) {
	spec := figure3Spec(t)
	inc := NewIncrementalSolver(spec, Options{})
	if _, _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}

	mustDo(t, spec.AddOutput("extra", "armed"))
	mustDo(t, spec.Constrain("extra", `inmsg = readex ? extra = armed : extra = NULL`))
	got, st, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedSteps != len(spec.Columns())-1 {
		t.Fatalf("ReusedSteps = %d, want %d (all prior steps)", st.ReusedSteps, len(spec.Columns())-1)
	}
	want, _, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := tableBytes(t, got), tableBytes(t, want); g != w {
		t.Fatalf("after column append, incremental diverged:\n%s\nvs\n%s", g, w)
	}
}

func TestIncrementalSolverFuncInvalidation(t *testing.T) {
	spec := figure3Spec(t)
	spec.RegisterFunc("always", sqlmini.Func(func(args []rel.Value) (rel.Value, error) {
		return rel.S("true"), nil
	}))
	inc := NewIncrementalSolver(spec, Options{})
	if _, _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}

	// Re-registering a function (same name) must drop the whole memo.
	spec.RegisterFunc("always", func(args []rel.Value) (rel.Value, error) {
		return rel.S("true"), nil
	})
	_, st, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedSteps != 0 {
		t.Fatalf("ReusedSteps = %d after RegisterFunc, want 0", st.ReusedSteps)
	}
}

func TestIncrementalSolverMutatedOutput(t *testing.T) {
	spec := figure3Spec(t)
	inc := NewIncrementalSolver(spec, Options{})
	t1, _, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := tableBytes(t, t1.Clone())

	// A caller scribbling on the returned table must not poison the memo:
	// the next solve detects the moved revision and rebuilds.
	mustDo(t, t1.Set(0, t1.ColumnsRef()[0], rel.S("data")))
	t2, st, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if t2 == t1 {
		t.Fatal("expected a rebuilt table after external mutation")
	}
	if st.ReusedSteps != len(spec.Columns()) {
		t.Fatalf("ReusedSteps = %d, want full reuse", st.ReusedSteps)
	}
	if got := tableBytes(t, t2); got != want {
		t.Fatalf("rebuilt table diverged from original solve:\n%s\nvs\n%s", got, want)
	}
}

func TestIncrementalSolverInconsistentSpec(t *testing.T) {
	spec := NewSpec("empty")
	mustDo(t, spec.AddInput("a", "lo", "hi"))
	mustDo(t, spec.AddInput("b", "go"))
	mustDo(t, spec.Constrain("a", `a <> NULL`))
	mustDo(t, spec.Constrain("b", `a = lo and a = hi`)) // unsatisfiable
	inc := NewIncrementalSolver(spec, Options{})

	t1, _, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if t1.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", t1.NumRows())
	}
	// Re-solving an aborted spec must converge and stay empty.
	t2, _, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", t2.NumRows())
	}
	// Fixing the contradiction re-runs from the dirty step.
	mustDo(t, spec.Constrain("b", `b = go`))
	t3, st, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumRows() == 0 {
		t.Fatal("fixed spec still empty")
	}
	if st.ReusedSteps == 0 {
		t.Fatal("expected prefix reuse after fixing the last constraint")
	}
	want, _, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := tableBytes(t, t3), tableBytes(t, want); g != w {
		t.Fatalf("fixed spec diverged:\n%s\nvs\n%s", g, w)
	}
}

// TestStepSharesColumns pins how a step builds its column-major part: a
// step in which every row keeps exactly one value shares the previous
// vectors as they are, a step that multiplies rows gathers fresh ones,
// and neither writes its input. An IncrementalSolver's memoized parts are
// unchanged by a later re-solve, whose table equals a fresh SolveOpts.
func TestStepSharesColumns(t *testing.T) {
	s := NewSpec("share")
	mustDo(t, s.AddInput("a", "x", "y"))
	mustDo(t, s.AddInput("b", "u", "v"))
	mustDo(t, s.AddOutput("o", "p", "q"))
	mustDo(t, s.AddOutput("o2", "p", "q"))
	mustDo(t, s.Constrain("o", "a = x ? o = p : o = q"))
	mustDo(t, s.Constrain("o2", "a = x ? o2 = p : o2 = q"))
	cc, err := s.compiledConstraints()
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	run := newSolveRun(s, cc, 1, nil, &stats)
	step := func(cur part, i int) part {
		t.Helper()
		next, err := run.step(cur, i, encodeDomain(s.cols[i].Domain()))
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	same := func(a, b []uint32) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

	pa := step(part{n: 1}, 0)
	wantA := deepPart(pa)
	pb := step(pa, 1) // b multiplies every row by its three values
	if pb.n != 9 || len(pb.cols) != 2 {
		t.Fatalf("after b: %d rows in %d columns, want 9 in 2", pb.n, len(pb.cols))
	}
	if same(pb.cols[0], pa.cols[0]) {
		t.Fatal("a step that multiplies rows shares its input's vector instead of gathering it")
	}
	if !equalPart(pa, wantA) {
		t.Fatal("the step over b wrote its input part")
	}
	wantB := deepPart(pb)
	po := step(pb, 2) // every row keeps exactly one value of o
	if po.n != pb.n || len(po.cols) != 3 {
		t.Fatalf("after o: %d rows in %d columns, want %d in 3", po.n, len(po.cols), pb.n)
	}
	for j := range pb.cols {
		if !same(po.cols[j], pb.cols[j]) {
			t.Fatalf("the step over o copied column %d instead of sharing it", j)
		}
	}
	if !equalPart(pb, wantB) {
		t.Fatal("the step over o wrote its input part")
	}

	inc := NewIncrementalSolver(s, Options{Workers: 1})
	if _, _, err := inc.Solve(); err != nil {
		t.Fatal(err)
	}
	before := make([]part, len(inc.memo))
	for i, m := range inc.memo {
		before[i] = deepPart(m.part)
	}
	held := inc.memo[3].part
	// Re-constrain o2: a, b and o replay from the memo, and o2
	// re-executes over o's memoized part, whose column slice has room
	// for another vector.
	mustDo(t, s.Constrain("o2", "a = x ? o2 = q : o2 = p"))
	got, st, err := inc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReusedSteps != 3 {
		t.Fatalf("re-solve reused %d steps, want 3", st.ReusedSteps)
	}
	for i := 0; i < 3; i++ {
		if !equalPart(inc.memo[i].part, before[i]) {
			t.Fatalf("memoized part of step %d changed across the re-solve", i)
		}
	}
	if !equalPart(held, before[3]) {
		t.Fatal("the re-solve wrote the replaced step's part")
	}
	fresh, _, err := SolveOpts(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tableBytes(t, got) != tableBytes(t, fresh) {
		t.Fatal("incremental re-solve differs from a fresh SolveOpts")
	}
}

// deepPart copies p's vectors.
func deepPart(p part) part {
	cols := make([][]uint32, len(p.cols))
	for j, c := range p.cols {
		cols[j] = append([]uint32(nil), c...)
	}
	return part{cols: cols, n: p.n}
}

// equalPart reports whether a and b hold the same codes.
func equalPart(a, b part) bool {
	if a.n != b.n || len(a.cols) != len(b.cols) {
		return false
	}
	for j := range a.cols {
		if !equalCodes(a.cols[j], b.cols[j]) {
			return false
		}
	}
	return true
}
