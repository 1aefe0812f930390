package sqlmini

import (
	"errors"
	"testing"

	"coherdb/internal/rel"
)

// compileFixtureCols is the column layout the compiler tests bind against.
var compileFixtureCols = map[string]int{"a": 0, "b": 1, "c": 2}

// compileFixtureEnv views a positional row as a MapEnv for the interpreter.
func compileFixtureEnv(row []rel.Value) MapEnv {
	return MapEnv{"a": row[0], "b": row[1], "c": row[2]}
}

// fixtureEvaluator builds an evaluator with one registered function, in the
// requested NULL dialect.
func fixtureEvaluator(nullEq bool) *Evaluator {
	return &Evaluator{
		NullEq: nullEq,
		Funcs: map[string]Func{
			"isp": func(args []rel.Value) (rel.Value, error) {
				return rel.B(args[0].Str() == "p"), nil
			},
		},
	}
}

// compileTestExprs covers every operator the compiler lowers: comparisons,
// boolean connectives, IN (literal and general), BETWEEN, IS NULL, ternary
// chains, CASE, and function calls.
var compileTestExprs = []string{
	`a = "p"`,
	`a <> "p"`,
	`a < b`,
	`a >= b`,
	`a = b and b = c`,
	`a = "p" or b = "q"`,
	`not (a = "p")`,
	`a in ("p", "q")`,
	`a not in ("p", NULL)`,
	`a in ("p", b)`,
	`a is null`,
	`b is not null`,
	`a between "p" and "r"`,
	`a not between b and c`,
	`a = "p" ? b = "q" : c = "r"`,
	`a = "p" ? b = "q" : a = "q" ? b = "r" : b = NULL`,
	`case when a = "p" then b = "q" when a = "q" then c = "r" end`,
	`case when a = "p" then b = "q" else b is null end`,
	`isp(a)`,
	`isp(a) and b = c`,
	`a = NULL`,
	`b <> NULL`,
}

// fixtureDomain is the value domain each column ranges over in the
// exhaustive sweeps: NULL plus three strings.
var fixtureDomain = []rel.Value{rel.Null(), rel.S("p"), rel.S("q"), rel.S("r")}

// codesOf encodes a value row into the dictionary-code row compiled
// predicates evaluate.
func codesOf(row []rel.Value) []uint32 {
	crow := make([]uint32, len(row))
	for i, v := range row {
		crow[i] = dict.Code(v)
	}
	return crow
}

// forEachFixtureRow calls fn with every row in the 3-column cross product
// of fixtureDomain.
func forEachFixtureRow(fn func(row []rel.Value)) {
	for _, av := range fixtureDomain {
		for _, bv := range fixtureDomain {
			for _, cv := range fixtureDomain {
				fn([]rel.Value{av, bv, cv})
			}
		}
	}
}

// TestCompileAgreesWithInterpreter is the golden equivalence property at
// unit level: over every operator form, dialect and 3-column env,
// CompileVec's predicate on the env as a one-row batch and Evaluator.True
// agree exactly.
func TestCompileAgreesWithInterpreter(t *testing.T) {
	for _, nullEq := range []bool{false, true} {
		ev := fixtureEvaluator(nullEq)
		for _, src := range compileTestExprs {
			e, err := ParseExpr(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			vp, err := ev.CompileVec(e, compileFixtureCols)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			forEachFixtureRow(func(row []rel.Value) {
				want, werr := ev.True(e, compileFixtureEnv(row))
				got, gerr := RowTrue(vp, codesOf(row))
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%q (nullEq=%v) on %v: interpreter err %v, compiled err %v",
						src, nullEq, row, werr, gerr)
				}
				if got != want {
					t.Fatalf("%q (nullEq=%v) on %v: interpreter %v, compiled %v",
						src, nullEq, row, want, got)
				}
			})
		}
	}
}

// TestCompileSweepAgreesWithInterpreter drives CompileVec the way the
// solver does — one base row at a time, the last column swept across the
// domain in one batch (SweepLanes) — and checks every lane against the
// interpreter.
func TestCompileSweepAgreesWithInterpreter(t *testing.T) {
	domain := codesOf(fixtureDomain)
	for _, nullEq := range []bool{false, true} {
		ev := fixtureEvaluator(nullEq)
		for _, src := range compileTestExprs {
			e, err := ParseExpr(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			vp, err := ev.CompileVec(e, compileFixtureCols)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			for _, av := range fixtureDomain {
				for _, bv := range fixtureDomain {
					crow := codesOf([]rel.Value{av, bv, rel.Null()})
					keep, gerr := SweepLanes(vp, crow, 2, domain)
					for i, cv := range fixtureDomain {
						row := []rel.Value{av, bv, cv}
						want, werr := ev.True(e, compileFixtureEnv(row))
						if (werr == nil) != (gerr == nil) || (gerr == nil && keep[i] != want) {
							t.Fatalf("%q (nullEq=%v) on %v: interpreter (%v, %v), swept batch (%v, %v)",
								src, nullEq, row, want, werr, keep, gerr)
						}
					}
				}
			}
		}
	}
}

func TestCompileUnknownColumnIsCompileTimeError(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`ghost = "p"`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.CompileVec(e, compileFixtureCols); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v, want ErrUnknownColumn", err)
	}
}

func TestCompileUnknownFuncIsCompileTimeError(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`nosuch(a)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.CompileVec(e, compileFixtureCols); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("err = %v, want ErrUnknownFunc", err)
	}
}

// TestCompiledPredConcurrentUse runs one compiled predicate from many
// goroutines, each on one-row batches; it must be safe because the
// predicate's mutable scratch lives in pooled states, one per evaluation.
// Meant for -race runs.
func TestCompiledPredConcurrentUse(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`a = "p" ? b = "q" : b in ("q", "r")`)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := ev.CompileVec(e, compileFixtureCols)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				row := codesOf([]rel.Value{rel.S("p"), rel.S("q"), fixtureDomain[i%len(fixtureDomain)]})
				if ok, err := RowTrue(vp, row); err != nil || !ok {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
