package sqlmini

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"coherdb/internal/rel"
)

func evalIn(t *testing.T, ev *Evaluator, src string, env Env) rel.Value {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := ev.Eval(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func constraintEval() *Evaluator {
	return &Evaluator{Funcs: map[string]Func{}, NullEq: true}
}

func sqlEval() *Evaluator {
	return &Evaluator{Funcs: map[string]Func{}, NullEq: false}
}

func TestEvalPaperConstraint(t *testing.T) {
	ev := constraintEval()
	env := MapEnv{"inmsg": rel.S("data"), "dirst": rel.S("Busy-d"), "dirpv": rel.S("zero")}
	v := evalIn(t, ev, `inmsg = "data" and dirst = "Busy-d" ? dirpv = "zero" : dirpv = "one"`, env)
	if !v.Bool() {
		t.Fatal("constraint should hold on the Fig. 3 row")
	}
	env["dirpv"] = rel.S("one")
	v = evalIn(t, ev, `inmsg = "data" and dirst = "Busy-d" ? dirpv = "zero" : dirpv = "one"`, env)
	if v.Bool() {
		t.Fatal("constraint should fail when dirpv is one in Busy-d")
	}
}

func TestEvalNullEqDialect(t *testing.T) {
	ev := constraintEval()
	env := MapEnv{"remmsg": rel.Null()}
	if v := evalIn(t, ev, `remmsg = NULL`, env); !v.Bool() {
		t.Fatal("constraint dialect: NULL = NULL must hold")
	}
	if v := evalIn(t, ev, `remmsg <> NULL`, env); v.Bool() {
		t.Fatal("constraint dialect: NULL <> NULL must not hold")
	}
	env["remmsg"] = rel.S("sinv")
	if v := evalIn(t, ev, `remmsg = NULL`, env); v.Bool() {
		t.Fatal("sinv = NULL must not hold")
	}
	if v := evalIn(t, ev, `remmsg < NULL`, env); v.Bool() || v.IsNull() {
		t.Fatal("ordered comparison against NULL is false in constraint dialect")
	}
}

func TestEvalStrictSQLNulls(t *testing.T) {
	ev := sqlEval()
	env := MapEnv{"x": rel.Null()}
	if v := evalIn(t, ev, `x = NULL`, env); !v.IsNull() {
		t.Fatal("ANSI: NULL = NULL is unknown")
	}
	// Kleene: unknown OR true = true; unknown AND false = false.
	if v := evalIn(t, ev, `x = NULL or 1 = 1`, env); !v.Bool() {
		t.Fatal("unknown OR true must be true")
	}
	if v := evalIn(t, ev, `x = NULL and 1 = 2`, env); v.IsNull() || v.Bool() {
		t.Fatal("unknown AND false must be false")
	}
	if v := evalIn(t, ev, `not x = NULL`, env); !v.IsNull() {
		t.Fatal("NOT unknown must stay unknown")
	}
}

func TestEvalComparisonOperators(t *testing.T) {
	ev := constraintEval()
	env := MapEnv{"n": rel.I(5), "s": rel.S("abc")}
	cases := map[string]bool{
		`n = 5`:   true,
		`n <> 5`:  false,
		`n < 6`:   true,
		`n <= 5`:  true,
		`n > 5`:   false,
		`n >= 5`:  true,
		`s = abc`: false, // bare abc is an unknown column -> error caught below
	}
	for src, want := range cases {
		if src == `s = abc` {
			continue
		}
		if v := evalIn(t, ev, src, env); v.Bool() != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
	// Unknown column errors.
	e, _ := ParseExpr(`s = abc`)
	if _, err := ev.Eval(e, env); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v, want ErrUnknownColumn", err)
	}
}

func TestEvalCrossKindComparisons(t *testing.T) {
	ev := constraintEval()
	env := MapEnv{"n": rel.I(1), "s": rel.S("1")}
	if v := evalIn(t, ev, `n = s`, env); v.Bool() {
		t.Fatal("int 1 must not equal string '1'")
	}
	if v := evalIn(t, ev, `n < s`, env); v.Bool() {
		t.Fatal("ordered cross-kind comparison must be false")
	}
}

func TestEvalInList(t *testing.T) {
	ev := constraintEval()
	env := MapEnv{"m": rel.S("readex")}
	if v := evalIn(t, ev, `m in ('read', 'readex', 'wb')`, env); !v.Bool() {
		t.Fatal("IN must match")
	}
	if v := evalIn(t, ev, `m not in ('read', 'wb')`, env); !v.Bool() {
		t.Fatal("NOT IN must hold")
	}
	env["m"] = rel.Null()
	if v := evalIn(t, ev, `m in ('read', NULL)`, env); !v.Bool() {
		t.Fatal("constraint dialect: NULL IN (..., NULL) must hold")
	}
}

func TestEvalIsNullAndBetween(t *testing.T) {
	ev := sqlEval()
	env := MapEnv{"x": rel.Null(), "n": rel.I(3)}
	if v := evalIn(t, ev, `x is null`, env); !v.Bool() {
		t.Fatal("IS NULL")
	}
	if v := evalIn(t, ev, `n is not null`, env); !v.Bool() {
		t.Fatal("IS NOT NULL")
	}
	if v := evalIn(t, ev, `n between 1 and 5`, env); !v.Bool() {
		t.Fatal("BETWEEN")
	}
	if v := evalIn(t, ev, `n not between 4 and 5`, env); !v.Bool() {
		t.Fatal("NOT BETWEEN")
	}
}

func TestEvalTernaryUnknownCondTakesElse(t *testing.T) {
	ev := sqlEval()
	env := MapEnv{"x": rel.Null()}
	v := evalIn(t, ev, `x = 1 ? 'then' : 'else'`, env)
	if v.Str() != "else" {
		t.Fatalf("v = %v, want else branch on unknown condition", v)
	}
}

func TestEvalCase(t *testing.T) {
	ev := constraintEval()
	env := MapEnv{"pv": rel.S("gone")}
	v := evalIn(t, ev, `case when pv = zerov then 0 when pv = "gone" then 2 else 1 end`,
		MapEnv{"pv": rel.S("gone"), "zerov": rel.S("zero")})
	if v.Int() != 2 {
		t.Fatalf("case = %v", v)
	}
	v = evalIn(t, ev, `case when pv = "zero" then 0 end`, env)
	if !v.IsNull() {
		t.Fatal("CASE with no match and no ELSE is NULL")
	}
}

func TestEvalCalls(t *testing.T) {
	ev := constraintEval()
	ev.Funcs["isrequest"] = func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("want 1 arg")
		}
		return rel.B(args[0].Str() == "readex" || args[0].Str() == "wb"), nil
	}
	env := MapEnv{"inmsg": rel.S("wb")}
	if v := evalIn(t, ev, `isrequest(inmsg)`, env); !v.Bool() {
		t.Fatal("isrequest(wb) must be true")
	}
	e, _ := ParseExpr(`nosuchfn(inmsg)`)
	if _, err := ev.Eval(e, env); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("err = %v", err)
	}
}

func TestColumnsCollection(t *testing.T) {
	e := mustExpr(t, `inmsg = "data" and dirst = "Busy-d" ? dirpv = "zero" : isrequest(locmsg)`)
	got := Columns(e)
	for _, want := range []string{"inmsg", "dirst", "dirpv", "locmsg"} {
		if _, ok := got[want]; !ok {
			t.Errorf("Columns missing %q", want)
		}
	}
	if len(got) != 4 {
		t.Errorf("Columns = %v", got)
	}
	// The column walker behind Columns and the vector fallback allocates
	// nothing.
	refs := 0
	if n := testing.AllocsPerRun(100, func() { VisitColumns(e, func(string) { refs++ }) }); n != 0 {
		t.Errorf("VisitColumns allocates %.1f per walk, want 0", n)
	}
}

func TestResolveSymbols(t *testing.T) {
	isCol := func(s string) bool { return s == "inmsg" || s == "dirst" || s == "remmsg" }
	e := mustExpr(t, `inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL`)
	r := ResolveSymbols(e, isCol)
	ev := constraintEval()
	env := MapEnv{"inmsg": rel.S("readex"), "dirst": rel.S("SI"), "remmsg": rel.S("sinv")}
	v, err := ev.Eval(r, env)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bool() {
		t.Fatal("resolved constraint must hold")
	}
	// Symbols inside every construct resolve.
	e2 := mustExpr(t, `case when inmsg in (readex, wb) then one else two end`)
	r2 := ResolveSymbols(e2, isCol)
	v, err = ev.Eval(r2, MapEnv{"inmsg": rel.S("wb")})
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "one" {
		t.Fatalf("v = %v", v)
	}
}

// Property: for random NULL-free environments, the constraint dialect and
// ANSI dialect agree on every comparison.
func TestQuickDialectsAgreeWithoutNulls(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	f := func(a, b int64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		e := Binary{Op: op, L: Lit{Val: rel.I(a)}, R: Lit{Val: rel.I(b)}}
		c := constraintEval()
		s := sqlEval()
		v1, err1 := c.Eval(e, MapEnv{})
		v2, err2 := s.Eval(e, MapEnv{})
		return err1 == nil && err2 == nil && v1.Equal(v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: NOT is an involution on three-valued logic.
func TestQuickDoubleNegation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var v rel.Value
		switch r.Intn(3) {
		case 0:
			v = rel.Null()
		case 1:
			v = rel.B(true)
		default:
			v = rel.B(false)
		}
		ev := sqlEval()
		e := Unary{Op: "NOT", X: Unary{Op: "NOT", X: Lit{Val: v}}}
		got, err := ev.Eval(e, MapEnv{})
		if err != nil {
			return false
		}
		want, err := ev.Eval(Lit{Val: v}, MapEnv{})
		if err != nil {
			return false
		}
		return triOf(got) == triOf(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan holds in Kleene logic: NOT(a AND b) == NOT a OR NOT b.
func TestQuickDeMorgan(t *testing.T) {
	vals := []rel.Value{rel.Null(), rel.B(true), rel.B(false)}
	ev := sqlEval()
	for _, a := range vals {
		for _, b := range vals {
			lhs := Unary{Op: "NOT", X: Binary{Op: "AND", L: Lit{Val: a}, R: Lit{Val: b}}}
			rhs := Binary{Op: "OR", L: Unary{Op: "NOT", X: Lit{Val: a}}, R: Unary{Op: "NOT", X: Lit{Val: b}}}
			v1, err1 := ev.Eval(lhs, MapEnv{})
			v2, err2 := ev.Eval(rhs, MapEnv{})
			if err1 != nil || err2 != nil || triOf(v1) != triOf(v2) {
				t.Fatalf("De Morgan fails for %v, %v: %v vs %v", a, b, v1, v2)
			}
		}
	}
}
