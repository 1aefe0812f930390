package protocol

import (
	"math/rand"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
)

func TestRuleSetBasics(t *testing.T) {
	rs := NewRuleSet()
	rs.Add(Rule{ID: "a", When: `x = "1"`, Set: map[string]string{"y": "p"}})
	rs.Add(Rule{ID: "b", When: `x = "2"`, Set: map[string]string{"y": "q"}})
	if rs.Len() != 2 {
		t.Fatal("len")
	}
	if legalityText(rs) != `(x = "1") or (x = "2")` {
		t.Fatal("legality empty")
	}
}

func TestRuleSetDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rs := NewRuleSet()
	rs.Add(Rule{ID: "x", When: "a = 1"})
	rs.Add(Rule{ID: "x", When: "a = 2"})
}

func TestRuleSetEmptyIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRuleSet().Add(Rule{When: "a = 1"})
}

func TestCompileRulePriority(t *testing.T) {
	// Overlapping rules: the first matching rule defines every output,
	// even the ones it leaves at NULL.
	s := constraint.NewSpec("prio")
	mustDo(t, s.AddInput("x", "1", "2"))
	mustDo(t, s.AddOutput("y", "p", "q"))
	mustDo(t, s.AddOutput("z", "r"))
	rs := NewRuleSet()
	rs.Add(Rule{ID: "specific", When: `x = "1"`, Set: map[string]string{"y": "p"}}) // z stays NULL
	rs.Add(Rule{ID: "general", When: `x <> NULL`, Set: map[string]string{"y": "q", "z": "r"}})
	if err := rs.CompileInto(s, "x", []string{"y", "z"}); err != nil {
		t.Fatal(err)
	}
	tab, _, err := constraint.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	row1 := tab.Select(func(r rel.Row) bool { return r.Get("x").Equal(rel.S("1")) })
	if row1.NumRows() != 1 || !row1.Get(0, "y").Equal(rel.S("p")) || !row1.Get(0, "z").IsNull() {
		t.Fatalf("priority violated:\n%s", tab)
	}
	row2 := tab.Select(func(r rel.Row) bool { return r.Get("x").Equal(rel.S("2")) })
	if row2.NumRows() != 1 || !row2.Get(0, "y").Equal(rel.S("q")) || !row2.Get(0, "z").Equal(rel.S("r")) {
		t.Fatalf("general rule broken:\n%s", tab)
	}
}

// TestQuickCompiledRulesMatchDirectEvaluation is the compiler's soundness
// property: solving the compiled ternary constraints yields exactly the
// table obtained by directly applying the first matching rule to every
// legal input combination.
func TestQuickCompiledRulesMatchDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for trial := 0; trial < 30; trial++ {
		inVals := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		outVals := []string{"p", "q"}

		// Random rules over two input columns.
		type simpleRule struct {
			x, y string // conditions on in1 (and in2 when y != "")
			set  map[string]string
		}
		var simples []simpleRule
		rs := NewRuleSet()
		n := 1 + rng.Intn(4)
		for k := 0; k < n; k++ {
			r := simpleRule{x: inVals[rng.Intn(len(inVals))], set: map[string]string{}}
			when := `in1 = "` + r.x + `"`
			if rng.Intn(2) == 0 {
				r.y = inVals[rng.Intn(len(inVals))]
				when += ` and in2 = "` + r.y + `"`
			}
			if rng.Intn(2) == 0 {
				r.set["out1"] = outVals[rng.Intn(len(outVals))]
			}
			if rng.Intn(2) == 0 {
				r.set["out2"] = outVals[rng.Intn(len(outVals))]
			}
			rs.Add(Rule{ID: string(rune('r' + k)), When: when, Set: r.set})
			simples = append(simples, r)
		}

		spec := constraint.NewSpec("q")
		mustDo(t, spec.AddColumn(constraint.Column{Name: "in1", Values: inVals, NoNull: true}))
		mustDo(t, spec.AddColumn(constraint.Column{Name: "in2", Values: inVals, NoNull: true}))
		mustDo(t, spec.AddColumn(constraint.Column{Name: "out1", Kind: constraint.Output, Values: outVals}))
		mustDo(t, spec.AddColumn(constraint.Column{Name: "out2", Kind: constraint.Output, Values: outVals}))
		if err := rs.CompileInto(spec, "in1", []string{"out1", "out2"}); err != nil {
			t.Fatal(err)
		}
		got, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatal(err)
		}

		// Direct evaluation: for each input combo, the first matching
		// rule's Set defines the outputs; combos with no match are
		// illegal (pruned by the legality constraint).
		want := rel.MustNewTable("q", "in1", "in2", "out1", "out2")
		for _, v1 := range inVals {
			for _, v2 := range inVals {
				matched := false
				for _, r := range simples {
					if r.x != v1 || (r.y != "" && r.y != v2) {
						continue
					}
					o1, o2 := rel.Null(), rel.Null()
					if v, ok := r.set["out1"]; ok {
						o1 = rel.S(v)
					}
					if v, ok := r.set["out2"]; ok {
						o2 = rel.S(v)
					}
					want.MustInsert(rel.S(v1), rel.S(v2), o1, o2)
					matched = true
					break
				}
				_ = matched
			}
		}
		eq, err := got.EqualRows(want.SetName(got.Name()))
		if err != nil || !eq {
			t.Fatalf("trial %d: compiled table differs\ncompiled:\n%s\ndirect:\n%s",
				trial, got, want)
		}
	}
}

func TestCompileLegalityConstraintPrunes(t *testing.T) {
	s := constraint.NewSpec("legal")
	mustDo(t, s.AddColumn(constraint.Column{Name: "x", Values: []string{"1", "2", "3"}, NoNull: true}))
	mustDo(t, s.AddColumn(constraint.Column{Name: "y", Kind: constraint.Output, Values: []string{"p"}}))
	rs := NewRuleSet()
	rs.Add(Rule{ID: "only1", When: `x = "1"`, Set: map[string]string{"y": "p"}})
	if err := rs.CompileInto(s, "x", []string{"y"}); err != nil {
		t.Fatal(err)
	}
	tab, _, err := constraint.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("legality failed to prune: %d rows\n%s", tab.NumRows(), tab)
	}
}

func TestCompileInvalidConstraintSurfaces(t *testing.T) {
	s := constraint.NewSpec("bad")
	mustDo(t, s.AddInput("x", "1"))
	mustDo(t, s.AddOutput("y", "p"))
	rs := NewRuleSet()
	rs.Add(Rule{ID: "broken", When: `x = `, Set: map[string]string{"y": "p"}})
	if err := rs.CompileInto(s, "x", []string{"y"}); err == nil {
		t.Fatal("broken When must fail compilation")
	}
}

func mustDo(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
