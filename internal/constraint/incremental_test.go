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
