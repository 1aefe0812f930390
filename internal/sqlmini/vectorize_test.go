package sqlmini

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"coherdb/internal/rel"
)

// Kernel-level audits of the vectorized execution layer: the selection-
// vector kernels, over scan morsels and over the constraint solver's
// domain batches (SweepLanes), against each row alone as a one-row batch
// and the tree-walking Evaluator, and the steady-state allocation
// contract of EvalVec.

// vecTestValues is the value universe the random predicate generator draws
// from: a NULL, a few strings, a few ints — enough to exercise both NULL
// dialects and the decoding comparisons.
var vecTestValues = []rel.Value{
	rel.Null(), rel.S("p"), rel.S("q"), rel.S("r"), rel.I(1), rel.I(2), rel.I(7),
}

// randBoundExpr builds a random plan-bound predicate over ncols columns
// from the grammar's comparable subset: =, <>, IN, IS NULL, ordered
// compares (which exercise the per-code verdict memo), NOT, AND, OR,
// the ternary and CASE, with and without ELSE.
func randBoundExpr(rng *rand.Rand, ncols, depth int) Expr {
	col := func() Expr {
		return boundCol{Col: Col{Name: fmt.Sprintf("c%d", rng.Intn(ncols))}, Idx: rng.Intn(ncols)}
	}
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return Binary{Op: "=", L: col(), R: lit()}
		case 1:
			return Binary{Op: "<>", L: col(), R: lit()}
		case 2:
			return Binary{Op: "=", L: col(), R: col()}
		case 3:
			set := make([]Expr, rng.Intn(4))
			for i := range set {
				set[i] = lit()
			}
			return InList{X: col(), Set: set, Negate: rng.Intn(2) == 0}
		case 4:
			return IsNull{X: col(), Negate: rng.Intn(2) == 0}
		default:
			ops := []string{"<", "<=", ">", ">="}
			return Binary{Op: ops[rng.Intn(len(ops))], L: col(), R: lit()}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return Binary{Op: "AND", L: randBoundExpr(rng, ncols, depth-1), R: randBoundExpr(rng, ncols, depth-1)}
	case 1:
		return Binary{Op: "OR", L: randBoundExpr(rng, ncols, depth-1), R: randBoundExpr(rng, ncols, depth-1)}
	case 2:
		return Unary{Op: "NOT", X: randBoundExpr(rng, ncols, depth-1)}
	case 3:
		c := Case{Whens: make([]When, 1+rng.Intn(2))}
		for i := range c.Whens {
			c.Whens[i] = When{Cond: randBoundExpr(rng, ncols, depth-1), Val: randBoundExpr(rng, ncols, depth-1)}
		}
		if rng.Intn(2) == 0 {
			c.Else = randBoundExpr(rng, ncols, depth-1)
		}
		return c
	default:
		return Ternary{
			Cond: randBoundExpr(rng, ncols, depth-1),
			Then: randBoundExpr(rng, ncols, depth-1),
			Else: randBoundExpr(rng, ncols, depth-1),
		}
	}
}

// randCodeCols builds nrows random rows over ncols columns, column-major,
// every code interned from the test value universe.
func randCodeCols(rng *rand.Rand, ncols, nrows int) [][]uint32 {
	cols := make([][]uint32, ncols)
	for j := range cols {
		cols[j] = make([]uint32, nrows)
		for i := range cols[j] {
			cols[j][i] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
		}
	}
	return cols
}

// TestVecPredMatchesScalarKernel is the seeded randomized cross-check: for
// hundreds of random predicates, in both NULL dialects, the selection
// vector EvalVec keeps must be exactly the rows the same predicate keeps
// on each row alone, as a one-row batch, and the tree-walking Evaluator
// accepts one at a time. Every predicate vectorizes, including those that
// read several columns.
func TestVecPredMatchesScalarKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ncols, nrows = 3, 64
	for trial := 0; trial < 400; trial++ {
		e := randBoundExpr(rng, ncols, rng.Intn(3))
		cols := randCodeCols(rng, ncols, nrows)
		for _, strict := range []bool{false, true} {
			ev := &Evaluator{NullEq: !strict}
			vp, err := ev.CompileBoundVec(e)
			if err != nil {
				t.Fatalf("trial %d strict=%v: vectorized compile of %s: %v", trial, strict, e, err)
			}
			sel := make([]uint32, nrows)
			for i := range sel {
				sel[i] = uint32(i)
			}
			kept, err := vp.EvalVec(cols, sel)
			if err != nil {
				t.Fatalf("trial %d strict=%v: EvalVec of %s: %v", trial, strict, e, err)
			}
			crow := make([]uint32, ncols)
			var want []uint32
			for i := 0; i < nrows; i++ {
				for j := 0; j < ncols; j++ {
					crow[j] = cols[j][i]
				}
				ok, err := RowTrue(vp, crow)
				if err != nil {
					t.Fatalf("trial %d strict=%v: one-row eval of %s: %v", trial, strict, e, err)
				}
				interp, err := ev.True(e, frameEnv{f: &scope{}, row: crow})
				if err != nil || interp != ok {
					t.Fatalf("trial %d strict=%v row %d: %s: compiled %v, interpreter (%v, %v)", trial, strict, i, e, ok, interp, err)
				}
				if ok {
					want = append(want, uint32(i))
				}
			}
			if fmt.Sprint(kept) != fmt.Sprint(want) {
				t.Fatalf("trial %d strict=%v: %s\nvectorized keeps %v\none-row keeps   %v",
					trial, strict, e, kept, want)
			}
		}
	}
}

// randSweepExpr builds a random unbound condition over named columns,
// including the shapes the kernels lower structurally (=, <>, IN, IS NULL,
// AND/OR, ternary) and the ones that decode values (ordered compares,
// BETWEEN).
func randSweepExpr(rng *rand.Rand, names []string, depth int) Expr {
	col := func() Expr { return Col{Name: names[rng.Intn(len(names))]} }
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return Binary{Op: "=", L: col(), R: lit()}
		case 1:
			return Binary{Op: "<>", L: col(), R: col()}
		case 2:
			set := make([]Expr, rng.Intn(3))
			for i := range set {
				set[i] = lit()
			}
			return InList{X: col(), Set: set, Negate: rng.Intn(2) == 0}
		case 3:
			return IsNull{X: col(), Negate: rng.Intn(2) == 0}
		case 4:
			return Binary{Op: ">", L: col(), R: lit()}
		default:
			return Between{X: col(), Lo: lit(), Hi: lit(), Negate: rng.Intn(2) == 0}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Binary{Op: "AND", L: randSweepExpr(rng, names, depth-1), R: randSweepExpr(rng, names, depth-1)}
	case 1:
		return Binary{Op: "OR", L: randSweepExpr(rng, names, depth-1), R: randSweepExpr(rng, names, depth-1)}
	case 2:
		return Unary{Op: "NOT", X: randSweepExpr(rng, names, depth-1)}
	default:
		return Ternary{
			Cond: randSweepExpr(rng, names, depth-1),
			Then: randSweepExpr(rng, names, depth-1),
			Else: randSweepExpr(rng, names, depth-1),
		}
	}
}

// TestSweepVecMatchesInterpreter cross-checks CompileVec over the solver's
// batch (SweepLanes) against the tree-walking Evaluator on random
// expressions: for random base rows and domains, every lane kept must
// match Evaluator.True on the row with the sweep column substituted — in
// both NULL dialects, with one predicate, and its pooled scratch, reused
// across consecutive rows. The chains subtest does the same for long rule
// chains and their Selector split.
func TestSweepVecMatchesInterpreter(t *testing.T) {
	t.Run("chains", testSweepVecChains)
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	ix := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	for trial := 0; trial < 300; trial++ {
		e := randSweepExpr(rng, names, rng.Intn(3))
		sweep := rng.Intn(len(names))
		for _, strict := range []bool{false, true} {
			ev := &Evaluator{NullEq: !strict}
			vp, err := ev.CompileVec(e, ix)
			if err != nil {
				t.Fatalf("trial %d strict=%v: vectorized compile of %s: %v", trial, strict, e, err)
			}
			domain := make([]uint32, 1+rng.Intn(6))
			for i := range domain {
				domain[i] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
			}
			crow := make([]uint32, len(names))
			env := make(MapEnv, len(names))
			for row := 0; row < 4; row++ {
				for j := range crow {
					crow[j] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
					env[names[j]] = dict.Value(crow[j])
				}
				keep, err := SweepLanes(vp, crow, sweep, domain)
				if err != nil {
					t.Fatalf("trial %d strict=%v: sweep of %s: %v", trial, strict, e, err)
				}
				for di, d := range domain {
					env[names[sweep]] = dict.Value(d)
					want, err := ev.True(e, env)
					if err != nil {
						t.Fatalf("trial %d strict=%v: interpreting %s: %v", trial, strict, e, err)
					}
					if keep[di] != want {
						t.Fatalf("trial %d strict=%v row %d lane %d: %s\nvectorized=%v interpreter=%v (sweep col %d = code %d)",
							trial, strict, row, di, e, keep[di], want, sweep, d)
					}
				}
			}
		}
	}
}

// errBoom is what the boom test function returns on the value "r".
var errBoom = errors.New("boom on r")

// boomFunc is a registered test function that returns its argument but
// fails on "r", so errors raised inside stable chain conditions are
// checked across every evaluation path.
func boomFunc(args []rel.Value) (rel.Value, error) {
	if args[0].Equal(rel.S("r")) {
		return rel.Null(), errBoom
	}
	return args[0], nil
}

// randChain builds a right-nested first-match chain of n arms, the shape
// the rule compiler emits, over names with names[sweep] as the swept
// column. Most conditions are stable and rarely true, so long chains are
// walked deep; the rest read the sweep column (ending a stable run), come out
// Unknown (a bare column, or a compare with NULL in the strict dialect), or
// call boom over a stable column. Then-arms compare the sweep column or,
// while depth allows, nest a shorter chain.
func randChain(rng *rand.Rand, names []string, sweep, n, depth int) Expr {
	sweepCol := Col{Name: names[sweep]}
	stableCol := func() Expr {
		i := rng.Intn(len(names) - 1)
		if i >= sweep {
			i++
		}
		return Col{Name: names[i]}
	}
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	rareLit := func() Expr {
		if rng.Intn(8) == 0 {
			return lit()
		}
		return Lit{Val: rel.S(fmt.Sprintf("z%d", rng.Intn(50)))}
	}
	cond := func() Expr {
		switch r := rng.Intn(40); {
		case r < 2:
			return Binary{Op: "=", L: sweepCol, R: lit()}
		case r < 3:
			return Binary{Op: "=", L: Call{Name: "boom", Args: []Expr{stableCol()}}, R: rareLit()}
		case r < 5:
			return Binary{Op: "=", L: stableCol(), R: Lit{Val: rel.Null()}}
		case r < 6:
			return stableCol()
		case r < 14:
			return Binary{Op: "AND", L: Binary{Op: "=", L: stableCol(), R: lit()}, R: Binary{Op: "=", L: stableCol(), R: rareLit()}}
		default:
			return Binary{Op: "=", L: stableCol(), R: rareLit()}
		}
	}
	then := func() Expr {
		if depth > 0 && rng.Intn(10) == 0 {
			return randChain(rng, names, sweep, 1+rng.Intn(8), depth-1)
		}
		return Binary{Op: "=", L: sweepCol, R: lit()}
	}
	var e Expr = Binary{Op: "=", L: sweepCol, R: Lit{Val: rel.Null()}}
	for i := 0; i < n; i++ {
		e = Ternary{Cond: cond(), Then: then(), Else: e}
	}
	return e
}

// splitChain reads e as the constraint solver does: the conditions of its
// leading right-nested ternary arms that do not read the sweep column, the
// arms' then branches, and the rest of the chain as the last branch.
func splitChain(e Expr, sweepCol string) (conds, branches []Expr) {
	for {
		t, ok := e.(Ternary)
		if !ok {
			break
		}
		if _, reads := Columns(t.Cond)[sweepCol]; reads {
			break
		}
		conds = append(conds, t.Cond)
		branches = append(branches, t.Then)
		e = t.Else
	}
	return conds, append(branches, e)
}

// testSweepVecChains cross-checks two lowerings of rule chains against the
// tree-walking Evaluator: seeded random chains of 1–600 arms, in both NULL
// dialects, must give the swept batch of the whole chain's CompileVec
// predicate, the Evaluator, and a Selector over the leading stable
// conditions followed by the chosen branch's CompileVec predicate the same
// verdict on every lane — and the same error whenever a condition's
// function call fails. The Selector picks the arms of a random selection
// of each trial's base rows in one batch.
func testSweepVecChains(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := []string{"a", "b", "c", "d"}
	ix := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	funcs := map[string]Func{"boom": boomFunc}
	errRows := 0
	for trial := 0; trial < 120; trial++ {
		sweep := rng.Intn(len(names))
		e := randChain(rng, names, sweep, 1+rng.Intn(600), 2)
		for _, strict := range []bool{false, true} {
			ev := &Evaluator{Funcs: funcs, NullEq: !strict}
			vp, err := ev.CompileVec(e, ix)
			if err != nil {
				t.Fatalf("trial %d strict=%v: vectorized compile: %v", trial, strict, err)
			}
			conds, branches := splitChain(e, names[sweep])
			sel, err := ev.CompileSelector(conds, ix)
			if err != nil {
				t.Fatalf("trial %d strict=%v: selector compile: %v", trial, strict, err)
			}
			bps := make([]*VecPred, len(branches))
			for i, b := range branches {
				if bps[i], err = ev.CompileVec(b, ix); err != nil {
					t.Fatalf("trial %d strict=%v: branch %d compile: %v", trial, strict, i, err)
				}
			}
			domain := make([]uint32, 1+rng.Intn(6))
			for i := range domain {
				domain[i] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
			}
			// Six base rows as column vectors; the Selector picks the arms
			// of a random selection of them in one batch.
			const nrows = 6
			cols := make([][]uint32, len(names))
			for j := range cols {
				cols[j] = make([]uint32, nrows)
				for i := range cols[j] {
					cols[j][i] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
				}
			}
			var rows []uint32
			for i := 0; i < nrows; i++ {
				if rng.Intn(3) != 0 {
					rows = append(rows, uint32(i))
				}
			}
			arms, armErrs := sel.Select(cols, rows)
			k := 0
			crow := make([]uint32, len(names))
			env := make(MapEnv, len(names))
			for row := 0; row < nrows; row++ {
				for j := range crow {
					crow[j] = cols[j][row]
					env[names[j]] = dict.Value(crow[j])
				}
				keep, verr := SweepLanes(vp, crow, sweep, domain)
				selected := k < len(rows) && rows[k] == uint32(row)
				var arm int32
				var bkeep []bool
				var berr error
				if selected {
					arm = arms[k]
					if armErrs != nil {
						berr = armErrs[k]
					}
					k++
					if berr == nil {
						bkeep, berr = SweepLanes(bps[arm], crow, sweep, domain)
					}
				}
				var laneErr error
				for di, d := range domain {
					env[names[sweep]] = dict.Value(d)
					want, werr := ev.True(e, env)
					if werr != nil {
						laneErr = werr
						continue
					}
					if verr == nil && keep[di] != want {
						t.Fatalf("trial %d strict=%v row %d lane %d: vectorized=%v evaluator=%v",
							trial, strict, row, di, keep[di], want)
					}
					if selected && berr == nil && bkeep[di] != want {
						t.Fatalf("trial %d strict=%v row %d lane %d: selector arm %d of %d gives %v, evaluator %v",
							trial, strict, row, di, arm, len(conds), bkeep[di], want)
					}
				}
				if fmt.Sprint(verr) != fmt.Sprint(laneErr) {
					t.Fatalf("trial %d strict=%v row %d: vectorized error %v, lane error %v", trial, strict, row, verr, laneErr)
				}
				if selected && fmt.Sprint(berr) != fmt.Sprint(laneErr) {
					t.Fatalf("trial %d strict=%v row %d: selector path error %v, lane error %v", trial, strict, row, berr, laneErr)
				}
				if verr != nil {
					errRows++
				}
			}
		}
	}
	if errRows == 0 {
		t.Fatal("no row reached a failing boom call; the error path went untested")
	}
}

// randSelectCond builds a random rule condition over names for the
// Selector test; with boom set it may call boom, which fails on "r". The
// calls sit only where the kernels and the interpreter evaluate the same
// rows: at the top, on either side of OR, on the left of AND, and in a
// leaf under NOT. AND's right side, and OR's under NOT, run in the
// interpreter on rows the left side left unknown as well (the caveat in
// vectorize.go's header).
func randSelectCond(rng *rand.Rand, names []string, depth int, boom bool) Expr {
	col := func() Expr { return Col{Name: names[rng.Intn(len(names))]} }
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	if depth > 0 {
		switch rng.Intn(6) {
		case 0:
			return Binary{Op: "AND", L: randSelectCond(rng, names, depth-1, boom), R: randSelectCond(rng, names, depth-1, false)}
		case 1:
			return Binary{Op: "OR", L: randSelectCond(rng, names, depth-1, boom), R: randSelectCond(rng, names, depth-1, boom)}
		case 2:
			return Unary{Op: "NOT", X: randSelectCond(rng, names, 0, boom)}
		}
	}
	switch r := rng.Intn(10); {
	case boom && r < 2:
		return Binary{Op: "=", L: Call{Name: "boom", Args: []Expr{col()}}, R: lit()}
	case r < 4:
		return IsNull{X: col(), Negate: rng.Intn(2) == 0}
	case r < 6:
		return InList{X: col(), Set: []Expr{lit(), lit()}}
	case r < 7:
		return Binary{Op: "=", L: col(), R: col()}
	default:
		return Binary{Op: "=", L: col(), R: lit()}
	}
}

// TestSelectorBatchMatchesRows checks the batch Selector against the
// interpreter's first-match walk of each row: random condition chains,
// some calling boom (which fails on "r"), over NULL-heavy column vectors
// and random selections, in both NULL dialects. Each selected row's arm,
// or the error that ends its walk, must be the walk's; a row that fails
// keeps its error while the other rows of its batch get their arms, and
// the selection is left as it was.
func TestSelectorBatchMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	names := []string{"a", "b", "c", "d"}
	ix := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	funcs := map[string]Func{"boom": boomFunc}
	failed, mixed := 0, 0 // failing rows; batches with failing and picked rows
	for trial := 0; trial < 300; trial++ {
		conds := make([]Expr, 1+rng.Intn(12))
		for i := range conds {
			conds[i] = randSelectCond(rng, names, 2, rng.Intn(3) == 0)
		}
		nrows := 1 + rng.Intn(64)
		cols := make([][]uint32, len(names))
		for j := range cols {
			cols[j] = make([]uint32, nrows)
			for i := range cols[j] {
				v := rel.Null()
				if rng.Intn(3) != 0 {
					v = vecTestValues[rng.Intn(len(vecTestValues))]
				}
				cols[j][i] = dict.Code(v)
			}
		}
		var sel []uint32
		for i := 0; i < nrows; i++ {
			if rng.Intn(3) != 0 {
				sel = append(sel, uint32(i))
			}
		}
		for _, strict := range []bool{false, true} {
			ev := &Evaluator{Funcs: funcs, NullEq: !strict}
			s, err := ev.CompileSelector(conds, ix)
			if err != nil {
				t.Fatalf("trial %d strict=%v: CompileSelector(%v): %v", trial, strict, conds, err)
			}
			orig := fmt.Sprint(sel)
			arms, errs := s.Select(cols, sel)
			if fmt.Sprint(sel) != orig {
				t.Fatalf("trial %d strict=%v: Select changed its selection %s to %v", trial, strict, orig, sel)
			}
			if len(arms) != len(sel) || (errs != nil && len(errs) != len(sel)) {
				t.Fatalf("trial %d strict=%v: %d arms and %d errors for %d rows", trial, strict, len(arms), len(errs), len(sel))
			}
			rowsFailed, rowsPicked := 0, 0
			for k, r := range sel {
				env := make(MapEnv, len(names))
				for j, n := range names {
					env[n] = dict.Value(cols[j][r])
				}
				want := len(conds)
				var werr error
				for j, c := range conds {
					ok, err := ev.True(c, env)
					if err != nil {
						werr = err
						break
					}
					if ok {
						want = j
						break
					}
				}
				var gerr error
				if errs != nil {
					gerr = errs[k]
				}
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("trial %d strict=%v row %d: Selector error %v, interpreter %v\nconditions: %v", trial, strict, r, gerr, werr, conds)
				}
				if werr != nil {
					if arms[k] != -1 {
						t.Fatalf("trial %d strict=%v row %d: failed row has arm %d, want -1", trial, strict, r, arms[k])
					}
					rowsFailed++
					continue
				}
				if arms[k] != int32(want) {
					t.Fatalf("trial %d strict=%v row %d: Selector picks %d, interpreter %d\nconditions: %v", trial, strict, r, arms[k], want, conds)
				}
				rowsPicked++
			}
			if errs != nil && rowsFailed == 0 {
				t.Fatalf("trial %d strict=%v: errors %v reported, but no row fails", trial, strict, errs)
			}
			failed += rowsFailed
			if rowsFailed > 0 && rowsPicked > 0 {
				mixed++
			}
		}
	}
	if failed == 0 || mixed == 0 {
		t.Fatalf("%d failing rows, %d batches mixing failing and picked rows: the error path went untested", failed, mixed)
	}
}

// TestVectorizedFilterAllocs audits the steady-state allocation contract:
// once a VecPred's pooled scratch state is warm, EvalVec must not allocate
// — for the pure code-compare kernels, the ternary's partition and merge
// (OR and CASE included), a single-column ordered comparison behind its
// verdict memo (the memo table is grown on first contact, then reused)
// and a two-column one decoded per row alike.
func TestVectorizedFilterAllocs(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool deliberately drops items to
		// surface reuse races, so the scratch state re-allocates by design.
		t.Skip("sync.Pool bypasses reuse under -race")
	}
	const nrows = 256
	rng := rand.New(rand.NewSource(3))
	cols := randCodeCols(rng, 2, nrows)
	ev := &Evaluator{NullEq: false}
	exprs := []struct {
		name string
		e    Expr
	}{
		{"eq-or-in", Binary{Op: "OR",
			L: Binary{Op: "=", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: Lit{Val: rel.S("p")}},
			R: InList{X: boundCol{Col: Col{Name: "b"}, Idx: 1}, Set: []Expr{Lit{Val: rel.I(1)}, Lit{Val: rel.I(2)}}},
		}},
		{"ternary", Ternary{
			Cond: Binary{Op: "=", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: Lit{Val: rel.S("p")}},
			Then: IsNull{X: boundCol{Col: Col{Name: "b"}, Idx: 1}, Negate: true},
			Else: Binary{Op: "=", L: boundCol{Col: Col{Name: "b"}, Idx: 1}, R: Lit{Val: rel.I(2)}},
		}},
		{"case-else", Case{Whens: []When{
			{Cond: Binary{Op: "=", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: Lit{Val: rel.S("p")}}, Val: IsNull{X: boundCol{Col: Col{Name: "b"}, Idx: 1}}},
			{Cond: Binary{Op: "=", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: Lit{Val: rel.S("q")}}, Val: Lit{Val: rel.B(true)}},
		}, Else: Binary{Op: "<>", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: boundCol{Col: Col{Name: "b"}, Idx: 1}}}},
		{"case-no-else", Unary{Op: "NOT", X: Case{Whens: []When{
			{Cond: IsNull{X: boundCol{Col: Col{Name: "a"}, Idx: 0}}, Val: Binary{Op: "=", L: boundCol{Col: Col{Name: "b"}, Idx: 1}, R: Lit{Val: rel.I(1)}}},
		}}}},
		{"memo", Binary{Op: ">", L: boundCol{Col: Col{Name: "b"}, Idx: 1}, R: Lit{Val: rel.I(1)}}},
		{"multi-column", Binary{Op: "<", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: boundCol{Col: Col{Name: "b"}, Idx: 1}}},
	}
	sel := make([]uint32, nrows)
	for _, tc := range exprs {
		vp, err := ev.CompileBoundVec(tc.e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run := func() {
			for i := range sel {
				sel[i] = uint32(i)
			}
			if _, err := vp.EvalVec(cols, sel[:nrows]); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool and the verdict memo
		if got := testing.AllocsPerRun(100, run); got > 0 {
			t.Errorf("%s: EvalVec allocates %.1f per call at steady state, want 0", tc.name, got)
		}
	}
}
