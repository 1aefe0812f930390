package sqlmini

import (
	"fmt"
	"math/rand"
	"testing"

	"coherdb/internal/rel"
)

// fuzzValues is the value universe of the differential fuzzer's columns
// and sweep domains: NULL (drawn far more often than any other value),
// the strings and small ints randExpr's literals use, and one value no
// literal names.
var fuzzValues = []rel.Value{
	rel.Null(), rel.S("readex"), rel.S("x"), rel.S("Busy-sd"), rel.I(0), rel.I(3), rel.I(-2), rel.S("zz"),
}

// fuzzFuncs registers the one function randExpr calls: total, returning
// its first argument, or 7 with none.
var fuzzFuncs = map[string]Func{
	"f": func(args []rel.Value) (rel.Value, error) {
		if len(args) == 0 {
			return rel.I(7), nil
		}
		return args[0], nil
	},
}

// fuzzCase is one generated input of the differential fuzzer: an
// expression over three named columns, the same expression bound to their
// positions as the planner binds it, a Selector's condition chain, and
// the columns themselves.
type fuzzCase struct {
	names []string
	ix    map[string]int
	e     Expr   // name-resolved: Col, or boundCol resolved by name
	bound Expr   // plan-bound: every column reference a boundCol
	conds []Expr // name-resolved Selector conditions
	cols  [][]uint32
}

// newFuzzCase grows one input from rng: half the time randExpr over a, b
// and dirst (bound through bindExpr), otherwise randBoundExpr over c0..c2
// (already bound; name resolution reads the column its name gives).
func newFuzzCase(rng *rand.Rand, depth int) fuzzCase {
	fc := fuzzCase{names: []string{"a", "b", "dirst"}}
	gen := func() Expr { return randExpr(rng, depth) }
	if rng.Intn(2) == 1 {
		fc.names = []string{"c0", "c1", "c2"}
		gen = func() Expr { return randBoundExpr(rng, len(fc.names), depth) }
	}
	fc.ix = make(map[string]int, len(fc.names))
	for i, n := range fc.names {
		fc.ix[n] = i
	}
	fc.e = gen()
	fc.bound = bindExpr(fc.e, &scope{aliases: make([]string, len(fc.names)), names: fc.names})
	for n := 1 + rng.Intn(4); n > 0; n-- {
		fc.conds = append(fc.conds, gen())
	}
	nrows := 8 + rng.Intn(40)
	fc.cols = make([][]uint32, len(fc.names))
	for j := range fc.cols {
		fc.cols[j] = make([]uint32, nrows)
		for i := range fc.cols[j] {
			v := rel.Null()
			if rng.Intn(3) != 0 {
				v = fuzzValues[rng.Intn(len(fuzzValues))]
			}
			fc.cols[j][i] = dict.Code(v)
		}
	}
	return fc
}

// row gathers row i as a code row.
func (fc *fuzzCase) row(i int) []uint32 {
	crow := make([]uint32, len(fc.cols))
	for j, c := range fc.cols {
		crow[j] = c[i]
	}
	return crow
}

// env decodes a code row into the name binding the interpreter reads.
func (fc *fuzzCase) env(crow []uint32) MapEnv {
	env := make(MapEnv, len(crow))
	for j, c := range crow {
		env[fc.names[j]] = dict.Value(c)
	}
	return env
}

// FuzzCompiledMatchesInterpreter is the differential check over every
// compiled form of an expression. From (seed, depth, strict) it grows a
// random expression, Selector chain and NULL-heavy code columns, then
// checks each form against the tree-walking Evaluator in the chosen NULL
// dialect, row by row:
//
//   - the rows CompileBoundVec keeps from a random selection;
//   - the expression compiled as a value over a random selection: each
//     selected row's code is the interpreter's value, interned;
//   - each row alone as a batch of one lane, the shape INSERT VALUES and
//     memo misses take: the value, and the predicate both plan-bound and
//     compiled by name (CompileVec, the entry MonolithicOpts runs);
//   - every lane of CompileVec's predicate over the solver's batch
//     (SweepLanes) for a random swept column, with each row as the base;
//   - the arm a Selector picks for each row of a random selection, in one
//     batch.
//
// The seed corpus covers both dialects; run longer with
// go test -run '^$' -fuzz '^FuzzCompiledMatchesInterpreter$' -fuzztime 30s ./internal/sqlmini/
func FuzzCompiledMatchesInterpreter(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%4), seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, strict bool) {
		rng := rand.New(rand.NewSource(seed))
		fc := newFuzzCase(rng, int(depth%4))
		ev := &Evaluator{Funcs: fuzzFuncs, NullEq: !strict}
		checkCompiledForms(t, ev, fc, rng)
	})
}

func checkCompiledForms(t *testing.T, ev *Evaluator, fc fuzzCase, rng *rand.Rand) {
	t.Helper()
	nrows := len(fc.cols[0])
	// The oracles: which rows the expression is definitely true on, with
	// columns resolved by name and by bound position, and the bound
	// expression's value on each row. They differ only for randBoundExpr's
	// trees, whose names and positions are drawn apart.
	want := make([]bool, nrows)
	wantBound := make([]bool, nrows)
	wantCode := make([]uint32, nrows)
	for i := range want {
		var err error
		if want[i], err = ev.True(fc.e, fc.env(fc.row(i))); err != nil {
			t.Fatalf("interpreting %s: %v", fc.e, err)
		}
		env := frameEnv{f: &scope{}, row: fc.row(i)}
		if wantBound[i], err = ev.True(fc.bound, env); err != nil {
			t.Fatalf("interpreting bound %s: %v", fc.bound, err)
		}
		v, err := ev.Eval(fc.bound, env)
		if err != nil {
			t.Fatalf("interpreting bound %s as a value: %v", fc.bound, err)
		}
		wantCode[i] = dict.Code(v)
	}

	val, err := ev.compileValue(fc.bound)
	if err != nil {
		t.Fatalf("compileValue(%s): %v", fc.bound, err)
	}
	var vsel []uint32
	for i := 0; i < nrows; i++ {
		if rng.Intn(4) != 0 {
			vsel = append(vsel, uint32(i))
		}
	}
	orig := fmt.Sprint(vsel)
	codes := make([]uint32, len(vsel))
	if err := val.eval(fc.cols, vsel, codes); err != nil {
		t.Fatalf("value %s over %v: %v", fc.bound, vsel, err)
	}
	if fmt.Sprint(vsel) != orig {
		t.Fatalf("value %s changed its selection %s to %v", fc.bound, orig, vsel)
	}
	for k, r := range vsel {
		if codes[k] != wantCode[r] {
			t.Fatalf("row %d: value %s = %v, interpreter %v", r, fc.bound, dict.Value(codes[k]), dict.Value(wantCode[r]))
		}
	}

	named, err := ev.CompileVec(fc.e, fc.ix)
	if err != nil {
		t.Fatalf("CompileVec(%s): %v", fc.e, err)
	}
	bound, err := ev.CompileBoundVec(fc.bound)
	if err != nil {
		t.Fatalf("CompileBoundVec(%s): %v", fc.bound, err)
	}
	code := []uint32{0}
	for i := range want {
		crow := fc.row(i)
		if got, err := RowTrue(named, crow); err != nil || got != want[i] {
			t.Fatalf("row %d alone: CompileVec(%s) = (%v, %v), interpreter %v", i, fc.e, got, err, want[i])
		}
		if got, err := RowTrue(bound, crow); err != nil || got != wantBound[i] {
			t.Fatalf("row %d alone: CompileBoundVec(%s) = (%v, %v), interpreter %v", i, fc.bound, got, err, wantBound[i])
		}
		one := make([][]uint32, len(crow))
		for j := range crow {
			one[j] = crow[j : j+1]
		}
		if err := val.eval(one, []uint32{0}, code); err != nil || code[0] != wantCode[i] {
			t.Fatalf("row %d alone: value %s = (%v, %v), interpreter %v", i, fc.bound, dict.Value(code[0]), err, dict.Value(wantCode[i]))
		}
	}

	var sel, wantSel []uint32
	for i := 0; i < nrows; i++ {
		if rng.Intn(4) != 0 {
			sel = append(sel, uint32(i))
			if wantBound[i] {
				wantSel = append(wantSel, uint32(i))
			}
		}
	}
	kept, err := bound.EvalVec(fc.cols, sel)
	if err != nil {
		t.Fatalf("EvalVec(%s): %v", fc.bound, err)
	}
	if fmt.Sprint(kept) != fmt.Sprint(wantSel) {
		t.Fatalf("CompileBoundVec(%s) keeps %v of %v, interpreter %v", fc.bound, kept, sel, wantSel)
	}

	sweep := rng.Intn(len(fc.names))
	swept, err := ev.CompileVec(fc.e, fc.ix)
	if err != nil {
		t.Fatalf("CompileVec(%s): %v", fc.e, err)
	}
	domain := make([]uint32, 1+rng.Intn(len(fuzzValues)))
	for i := range domain {
		domain[i] = dict.Code(fuzzValues[rng.Intn(len(fuzzValues))])
	}
	for i := 0; i < nrows; i++ {
		keep, err := SweepLanes(swept, fc.row(i), sweep, domain)
		if err != nil {
			t.Fatalf("row %d: sweep of %s over column %d: %v", i, fc.e, sweep, err)
		}
		crow := fc.row(i)
		for d, code := range domain {
			crow[sweep] = code
			w, err := ev.True(fc.e, fc.env(crow))
			if err != nil || keep[d] != w {
				t.Fatalf("row %d lane %d: sweep of %s over column %d keeps %v, interpreter (%v, %v)",
					i, d, fc.e, sweep, keep[d], w, err)
			}
		}
	}

	selr, err := ev.CompileSelector(fc.conds, fc.ix)
	if err != nil {
		t.Fatalf("CompileSelector(%v): %v", fc.conds, err)
	}
	var rows []uint32
	for i := 0; i < nrows; i++ {
		if rng.Intn(4) != 0 {
			rows = append(rows, uint32(i))
		}
	}
	arms, errs := selr.Select(fc.cols, rows)
	if errs != nil {
		t.Fatalf("Selector over %v fails on %v: %v", fc.conds, rows, errs)
	}
	for k, r := range rows {
		env := fc.env(fc.row(int(r)))
		arm := len(fc.conds)
		for j, c := range fc.conds {
			if ok, err := ev.True(c, env); err != nil {
				t.Fatalf("interpreting %s: %v", c, err)
			} else if ok {
				arm = j
				break
			}
		}
		if arms[k] != int32(arm) {
			t.Fatalf("row %d: Selector over %v picks %d, interpreter %d", r, fc.conds, arms[k], arm)
		}
	}
}
