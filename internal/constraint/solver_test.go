package constraint

import (
	"errors"
	"math/rand"
	"testing"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// figure3Spec builds the readex fragment of the paper's directory table
// (Fig. 3): 3 input columns, 5 output columns.
func figure3Spec(t testing.TB) *Spec {
	s := NewSpec("D_readex")
	mustDo(t, s.AddInput("inmsg", "readex", "data", "idone"))
	mustDo(t, s.AddInput("dirst", "I", "SI", "Busy-sd", "Busy-d", "Busy-s"))
	mustDo(t, s.AddInput("dirpv", "zero", "one", "gone"))
	mustDo(t, s.AddOutput("locmsg", "compl-data"))
	mustDo(t, s.AddOutput("remmsg", "sinv"))
	mustDo(t, s.AddOutput("memmsg", "mread"))
	mustDo(t, s.AddOutput("nxtdirst", "MESI", "Busy-sd", "Busy-d", "Busy-s"))
	mustDo(t, s.AddOutput("nxtdirpv", "repl", "dec"))

	// Legal input combinations for the readex transaction fragment.
	mustDo(t, s.Constrain("inmsg", `inmsg <> NULL`))
	mustDo(t, s.Constrain("dirst",
		`inmsg = readex ? (dirst = I and dirpv = zero) or (dirst = SI and dirpv <> zero) :
		 inmsg = data ? dirst = Busy-sd or dirst = Busy-d :
		 dirst = Busy-sd or dirst = Busy-s`))
	mustDo(t, s.Constrain("dirpv",
		`inmsg = data and dirst = Busy-d ? dirpv = zero :
		 inmsg = idone and dirst = Busy-s ? dirpv = zero :
		 inmsg = readex and dirst = I ? dirpv = zero : dirpv <> NULL`))

	// Output behaviour.
	mustDo(t, s.Constrain("remmsg", `inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL`))
	mustDo(t, s.Constrain("memmsg", `inmsg = readex ? memmsg = mread : memmsg = NULL`))
	mustDo(t, s.Constrain("locmsg",
		`(inmsg = data and dirst = Busy-d) or (inmsg = idone and dirst = Busy-s) ?
		 locmsg = compl-data : locmsg = NULL`))
	mustDo(t, s.Constrain("nxtdirst",
		`inmsg = readex and dirst = I ? nxtdirst = Busy-d :
		 inmsg = readex ? nxtdirst = Busy-sd :
		 inmsg = data and dirst = Busy-sd ? nxtdirst = Busy-s :
		 inmsg = idone and dirst = Busy-sd ? nxtdirst = Busy-d :
		 nxtdirst = MESI`))
	mustDo(t, s.Constrain("nxtdirpv",
		`(inmsg = data and dirst = Busy-d) or (inmsg = idone and dirst = Busy-s) ?
		 nxtdirpv = repl :
		 inmsg = idone and dirst = Busy-sd ? nxtdirpv = dec : nxtdirpv = NULL`))
	return s
}

func mustDo(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpecConstruction(t *testing.T) {
	s := NewSpec("t")
	mustDo(t, s.AddInput("a", "1", "2"))
	mustDo(t, s.AddOutput("b", "x"))
	if err := s.AddInput("a", "3"); !errors.Is(err, ErrDupColumn) {
		t.Fatalf("err = %v", err)
	}
	if err := s.AddColumn(Column{Name: "c", NoNull: true}); !errors.Is(err, ErrEmptyDomain) {
		t.Fatalf("err = %v", err)
	}
	if got := s.InputNames(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("inputs = %v", got)
	}
	if got := s.Columns(); len(got) != 2 || got[1].Name != "b" || got[1].Kind != Output {
		t.Fatalf("columns = %v", got)
	}
	if !s.HasColumn("a") || s.HasColumn("zz") {
		t.Fatal("HasColumn")
	}
}

func TestConstrainValidation(t *testing.T) {
	s := NewSpec("t")
	mustDo(t, s.AddInput("a", "1", "2"))
	if err := s.Constrain("ghost", `a = 1`); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Constrain("a", `a = `); err == nil {
		t.Fatal("bad syntax must error")
	}
	// Qualified references are not allowed in the constraint dialect.
	if err := s.Constrain("a", `T.b = 1`); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
	mustDo(t, s.Constrain("a", `a = "1"`))
	if s.ConstraintCount() != 1 || s.Constraint("a") == nil {
		t.Fatal("constraint not stored")
	}
}

func TestColumnDomainIncludesNull(t *testing.T) {
	c := Column{Name: "x", Values: []string{"a"}}
	d := c.Domain()
	if len(d) != 2 || !d[0].IsNull() {
		t.Fatalf("domain = %v", d)
	}
	c.NoNull = true
	if d := c.Domain(); len(d) != 1 || d[0].IsNull() {
		t.Fatalf("NoNull domain = %v", d)
	}
}

func TestSolveFigure3(t *testing.T) {
	tab, stats, err := Solve(figure3Spec(t))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Empty() {
		t.Fatal("figure 3 table is empty")
	}
	if stats.Rows != tab.NumRows() || stats.Steps != 8 {
		t.Fatalf("stats = %+v", stats)
	}
	// The Fig. 3 rows must be present. Row 2 of the figure:
	// readex, SI, gone -> sinv, mread, Busy-sd, dec(nothing in fig: repl?).
	found := tab.Select(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("readex")) &&
			r.Get("dirst").Equal(rel.S("SI")) &&
			r.Get("remmsg").Equal(rel.S("sinv")) &&
			r.Get("memmsg").Equal(rel.S("mread")) &&
			r.Get("nxtdirst").Equal(rel.S("Busy-sd"))
	})
	if found.Empty() {
		t.Fatalf("readex@SI row missing:\n%s", tab)
	}
	// No row may have an illegal input combination: readex at Busy states
	// was excluded by the dirst constraint.
	bad := tab.Select(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("readex")) &&
			(r.Get("dirst").Equal(rel.S("Busy-sd")) || r.Get("dirst").Equal(rel.S("Busy-d")))
	})
	if !bad.Empty() {
		t.Fatalf("illegal rows generated:\n%s", bad)
	}
}

func TestSolveStepStats(t *testing.T) {
	spec := figure3Spec(t)
	tab, stats, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.StepStats) != stats.Steps {
		t.Fatalf("len(StepStats) = %d, Steps = %d", len(stats.StepStats), stats.Steps)
	}
	var cand, memo uint64
	for i, st := range stats.StepStats {
		if st.Column != spec.cols[i].Name {
			t.Errorf("step %d column = %q, want %q", i, st.Column, spec.cols[i].Name)
		}
		if st.Domain != len(spec.cols[i].Domain()) {
			t.Errorf("step %d domain = %d, want %d", i, st.Domain, len(spec.cols[i].Domain()))
		}
		if st.Candidates == 0 {
			t.Errorf("step %d tested no candidates", i)
		}
		cand += st.Candidates
		memo += st.MemoHits
	}
	if cand != stats.Candidates || memo != stats.MemoHits {
		t.Errorf("step sums candidates=%d memo=%d, totals %d/%d",
			cand, memo, stats.Candidates, stats.MemoHits)
	}
	if last := stats.StepStats[len(stats.StepStats)-1]; last.Rows != tab.NumRows() {
		t.Errorf("final step rows = %d, table has %d", last.Rows, tab.NumRows())
	}
}

func TestSolveMatchesMonolithic(t *testing.T) {
	spec := figure3Spec(t)
	inc, _, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	mono, _, err := MonolithicOpts(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := inc.EqualRows(mono)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("incremental (%d rows) and monolithic (%d rows) disagree",
			inc.NumRows(), mono.NumRows())
	}
	if inc.NumRows() != mono.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", inc.NumRows(), mono.NumRows())
	}
}

func TestSolveCandidatesFarFewerThanMonolithic(t *testing.T) {
	spec := figure3Spec(t)
	_, si, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, sm, err := MonolithicOpts(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if si.Candidates*10 > sm.Candidates {
		t.Fatalf("incremental tested %d candidates, monolithic %d; expected >10x gap",
			si.Candidates, sm.Candidates)
	}
}

// TestConstrainExprResolution pins ConstrainExpr's three cases: a tree
// whose every name is a column (a protocol builder's resolved rule chain)
// is stored as given; bare symbols still resolve to values; and a
// qualified reference to an undeclared column still fails with
// ErrNoColumn and the same text.
func TestConstrainExprResolution(t *testing.T) {
	s := NewSpec("t")
	mustDo(t, s.AddInput("a", "x", "y"))
	mustDo(t, s.AddOutput("b", "p", "q"))
	eq := func(l, r sqlmini.Expr) sqlmini.Expr { return sqlmini.Binary{Op: "=", L: l, R: r} }
	col := func(name string) sqlmini.Expr { return sqlmini.Col{Name: name} }
	lit := func(v string) sqlmini.Expr { return sqlmini.Lit{Val: rel.S(v)} }

	chain := sqlmini.Ternary{Cond: eq(col("a"), lit("x")), Then: eq(col("b"), lit("p")), Else: eq(col("b"), lit("q"))}
	mustDo(t, s.ConstrainExpr("b", chain))
	if got := s.Constraint("b"); !sqlmini.EqualExpr(got, chain) {
		t.Fatalf("resolved chain stored as %s, want %s", got, chain)
	}

	mustDo(t, s.ConstrainExpr("b", sqlmini.Binary{Op: "AND", L: eq(col("a"), col("x")), R: eq(col("b"), col("p"))}))
	want := sqlmini.Binary{Op: "AND", L: eq(col("a"), lit("x")), R: eq(col("b"), lit("p"))}
	if got := s.Constraint("b"); !sqlmini.EqualExpr(got, want) {
		t.Fatalf("bare symbols resolved to %s, want %s", got, want)
	}

	err := s.ConstrainExpr("b", eq(sqlmini.Col{Qualifier: "T", Name: "c"}, col("p")))
	if !errors.Is(err, ErrNoColumn) || err.Error() != `constraint: no such column: constraint for t.b references "c"` {
		t.Fatalf("qualified undeclared column: err = %v", err)
	}
	if got := s.Constraint("b"); !sqlmini.EqualExpr(got, want) {
		t.Fatalf("failed ConstrainExpr replaced the constraint with %s", got)
	}
}

func TestInconsistentConstraintsGiveEmptyTable(t *testing.T) {
	s := NewSpec("empty")
	mustDo(t, s.AddInput("a", "1", "2"))
	mustDo(t, s.AddInput("b", "x"))
	mustDo(t, s.Constrain("a", `a = "1"`))
	mustDo(t, s.Constrain("b", `a = "2"`)) // contradicts
	tab, _, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Empty() {
		t.Fatalf("inconsistent spec produced %d rows", tab.NumRows())
	}
	mono, _, err := MonolithicOpts(s, Options{})
	if err != nil || !mono.Empty() {
		t.Fatalf("monolithic: %v, %d rows", err, mono.NumRows())
	}
}

func TestUnconstrainedSpecIsFullCross(t *testing.T) {
	s := NewSpec("full")
	mustDo(t, s.AddColumn(Column{Name: "a", Values: []string{"1", "2"}, NoNull: true}))
	mustDo(t, s.AddColumn(Column{Name: "b", Values: []string{"x", "y", "z"}, NoNull: true}))
	tab, _, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6", tab.NumRows())
	}
}

func TestForwardReferencesDefer(t *testing.T) {
	// A constraint on an early column referencing a later column must be
	// applied when the later column appears.
	s := NewSpec("fwd")
	mustDo(t, s.AddInput("a", "1", "2"))
	mustDo(t, s.AddOutput("b", "1", "2"))
	mustDo(t, s.Constrain("a", `a = b and a <> NULL`)) // references b (later)
	tab, _, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (diagonal)\n%s", tab.NumRows(), tab)
	}
	for i := 0; i < tab.NumRows(); i++ {
		if !tab.Get(i, "a").Equal(tab.Get(i, "b")) {
			t.Fatal("diagonal constraint violated")
		}
	}
}

func TestMonolithicSpaceLimit(t *testing.T) {
	s := NewSpec("big")
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		mustDo(t, s.AddInput(n, "1", "2", "3", "4", "5", "6", "7", "8", "9"))
	}
	_, _, err := MonolithicOpts(s, Options{MonolithicLimit: 1000})
	if !errors.Is(err, ErrSpaceLimit) {
		t.Fatalf("err = %v", err)
	}
	if s.SpaceSize() != 10_000_000_000 {
		t.Fatalf("space = %d", s.SpaceSize())
	}
}

func TestSpaceSizeSaturates(t *testing.T) {
	s := NewSpec("huge")
	for i := 0; i < 40; i++ {
		mustDo(t, s.AddInput(string(rune('a'+i)), "1", "2", "3", "4", "5", "6", "7", "8", "9"))
	}
	if s.SpaceSize() != uint64(1)<<62 {
		t.Fatalf("space = %d, want saturation", s.SpaceSize())
	}
}

func TestRegisteredFuncInConstraint(t *testing.T) {
	s := NewSpec("fn")
	mustDo(t, s.AddInput("m", "readex", "data"))
	s.RegisterFunc("isrequest", func(args []rel.Value) (rel.Value, error) {
		return rel.B(args[0].Str() == "readex"), nil
	})
	mustDo(t, s.Constrain("m", `isrequest(m)`))
	tab, _, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 || !tab.Get(0, "m").Equal(rel.S("readex")) {
		t.Fatalf("table:\n%s", tab)
	}
}

func TestSolveSingleWorkerMatchesParallel(t *testing.T) {
	spec := figure3Spec(t)
	one, _, err := SolveOpts(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := SolveOpts(spec, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := one.EqualRows(many)
	if err != nil || !eq {
		t.Fatalf("parallel result differs: %v", err)
	}
}

// Property: on random small specs, Solve and MonolithicOpts agree exactly.
func TestQuickSolveEqualsMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		s := randomSpec(rng)
		inc, _, err := Solve(s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mono, _, err := MonolithicOpts(s, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eq, err := inc.EqualRows(mono)
		if err != nil || !eq {
			t.Fatalf("trial %d: incremental %d rows != monolithic %d rows",
				trial, inc.NumRows(), mono.NumRows())
		}
	}
}

// randomSpec builds a small random spec whose constraints compare columns
// with values and each other.
func randomSpec(rng *rand.Rand) *Spec {
	s := NewSpec("rand")
	vals := []string{"p", "q", "r"}
	ncols := 2 + rng.Intn(3)
	names := make([]string, ncols)
	for i := 0; i < ncols; i++ {
		names[i] = string(rune('a' + i))
		n := 1 + rng.Intn(3)
		if i < ncols/2 {
			_ = s.AddInput(names[i], vals[:n]...)
		} else {
			_ = s.AddOutput(names[i], vals[:n]...)
		}
	}
	// Attach 0-2 random constraints.
	for k := 0; k < rng.Intn(3); k++ {
		col := names[rng.Intn(ncols)]
		other := names[rng.Intn(ncols)]
		v := vals[rng.Intn(len(vals))]
		var expr string
		switch rng.Intn(4) {
		case 0:
			expr = col + ` = "` + v + `"`
		case 1:
			expr = col + ` <> NULL`
		case 2:
			expr = col + ` = ` + other
		default:
			expr = other + ` = "` + v + `" ? ` + col + ` = "` + v + `" : ` + col + ` = NULL`
		}
		if err := s.Constrain(col, expr); err != nil {
			panic(err)
		}
	}
	return s
}

// Property: adding a constraint never adds rows (monotone pruning).
func TestQuickConstraintsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		s := randomSpec(rng)
		before, _, err := Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		// Tighten: first column must be non-NULL.
		col := s.ColumnNames()[0]
		if s.Constraint(col) != nil {
			continue // keep the test simple: only unconstrained columns
		}
		if err := s.Constrain(col, col+` <> NULL`); err != nil {
			t.Fatal(err)
		}
		after, _, err := Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if after.NumRows() > before.NumRows() {
			t.Fatalf("trial %d: tightening grew table %d -> %d",
				trial, before.NumRows(), after.NumRows())
		}
		ok, err := before.ContainsAll(after)
		if err != nil || !ok {
			t.Fatalf("trial %d: tightened table not a subset", trial)
		}
	}
}
