package sqlmini_test

import (
	"math/rand"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// constraintSpecs gathers every controller spec the compiled kernels must
// stay faithful on: the eight directory-protocol controllers plus the
// Fig. 3 fragment the solver benchmarks sweep.
func constraintSpecs(t testing.TB) map[string]*constraint.Spec {
	t.Helper()
	out := map[string]*constraint.Spec{}
	for _, sb := range protocol.SpecBuilders() {
		s, err := sb.Build()
		if err != nil {
			t.Fatalf("%s: %v", sb.Name, err)
		}
		out[sb.Name] = s
	}
	fig3, err := protocol.Figure3FragmentSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	out["figure3"] = fig3
	return out
}

// specEvaluator is the constraint dialect's evaluator (NULL an ordinary
// domain value) with the protocol predicates every spec here registers.
func specEvaluator() *sqlmini.Evaluator {
	ev := &sqlmini.Evaluator{Funcs: map[string]sqlmini.Func{}, NullEq: true}
	protocol.RegisterFuncs(func(name string, fn sqlmini.Func) { ev.Funcs[name] = fn })
	return ev
}

// splitStable reads a constraint as the solver reads a rule chain: the
// conditions of its leading right-nested ternary arms that do not read
// the fire column, those arms' then branches, and the rest of the chain
// as the last branch.
func splitStable(e sqlmini.Expr, fireCol string) (conds, branches []sqlmini.Expr) {
	for {
		t, ok := e.(sqlmini.Ternary)
		if !ok {
			break
		}
		reads := false
		sqlmini.VisitColumns(t.Cond, func(name string) { reads = reads || name == fireCol })
		if reads {
			break
		}
		conds = append(conds, t.Cond)
		branches = append(branches, t.Then)
		e = t.Else
	}
	return conds, append(branches, e)
}

// TestCompiledConstraintsMatchInterpreter is the golden equivalence check
// of the constraint-compilation layer: for every constraint of every
// controller spec, on randomly sampled rows drawn from the column
// domains, the tree-walking Evaluator.True must agree with the whole
// constraint's predicate, which MonolithicOpts runs, on each complete row
// as a one-row batch, and lane by lane with the selection-vector
// predicates the solver sweeps over the constraint's last referenced
// column (SweepLanes): the whole constraint, and its rule chain split into
// a Selector over the stable leading conditions and the chosen arm's
// branch. The Selector picks the arms of a random selection of the samples
// in one batch, each compared with the interpreter's first match.
func TestCompiledConstraintsMatchInterpreter(t *testing.T) {
	const samples = 150
	rng := rand.New(rand.NewSource(42))
	dict := rel.SharedDict()
	for name, spec := range constraintSpecs(t) {
		cols := spec.Columns()
		colIdx := map[string]int{}
		for i, n := range spec.ColumnNames() {
			colIdx[n] = i
		}
		domains := make([][]rel.Value, len(cols))
		for i, c := range cols {
			domains[i] = c.Domain()
		}
		ev := specEvaluator()
		for _, col := range spec.ColumnNames() {
			e := spec.Constraint(col)
			if e == nil {
				continue
			}
			// The solver sweeps a constraint over its last referenced
			// column.
			sweep := colIdx[col]
			sqlmini.VisitColumns(e, func(ref string) {
				if p, ok := colIdx[ref]; ok && p > sweep {
					sweep = p
				}
			})
			whole, err := ev.CompileVec(e, colIdx)
			if err != nil {
				t.Fatalf("%s.%s: compile sweep: %v", name, col, err)
			}
			conds, branches := splitStable(e, cols[sweep].Name)
			sel, err := ev.CompileSelector(conds, colIdx)
			if err != nil {
				t.Fatalf("%s.%s: compile selector: %v", name, col, err)
			}
			arms := make([]*sqlmini.VecPred, len(branches))
			for i, b := range branches {
				if arms[i], err = ev.CompileVec(b, colIdx); err != nil {
					t.Fatalf("%s.%s: compile branch %d: %v", name, col, i, err)
				}
			}
			domain := make([]uint32, len(domains[sweep]))
			for i, v := range domains[sweep] {
				domain[i] = dict.Code(v)
			}

			// The samples as column vectors; the Selector picks the arms of
			// a random selection of them in one batch.
			sampled := make([][]uint32, len(cols))
			for i := range cols {
				sampled[i] = make([]uint32, samples)
				for s := range sampled[i] {
					sampled[i][s] = dict.Code(domains[i][rng.Intn(len(domains[i]))])
				}
			}
			var picked []uint32
			for s := 0; s < samples; s++ {
				if rng.Intn(4) != 0 {
					picked = append(picked, uint32(s))
				}
			}
			picks, pickErrs := sel.Select(sampled, picked)
			if pickErrs != nil {
				t.Fatalf("%s.%s: select: %v", name, col, pickErrs)
			}

			row := make([]rel.Value, len(cols))
			crow := make([]uint32, len(cols))
			env := make(sqlmini.MapEnv, len(cols))
			k := 0
			for s := 0; s < samples; s++ {
				for i := range cols {
					crow[i] = sampled[i][s]
					row[i] = dict.Value(crow[i])
					env[cols[i].Name] = row[i]
				}
				wkeep, err := sqlmini.SweepLanes(whole, crow, sweep, domain)
				if err != nil {
					t.Fatalf("%s.%s on %v: sweep: %v", name, col, row, err)
				}
				arm := -1
				var akeep []bool
				if k < len(picked) && picked[k] == uint32(s) {
					arm = int(picks[k])
					k++
					first := len(conds)
					for j, c := range conds {
						if ok, err := ev.True(c, env); err != nil {
							t.Fatalf("%s.%s on %v: interpreting condition %d: %v", name, col, row, j, err)
						} else if ok {
							first = j
							break
						}
					}
					if arm != first {
						t.Fatalf("%s.%s on %v: Selector picks arm %d, interpreter %d", name, col, row, arm, first)
					}
					if akeep, err = sqlmini.SweepLanes(arms[arm], crow, sweep, domain); err != nil {
						t.Fatalf("%s.%s on %v: arm %d sweep: %v", name, col, row, arm, err)
					}
				}
				for i, v := range domains[sweep] {
					row[sweep] = v
					env[cols[sweep].Name] = v
					crow[sweep] = domain[i]
					want, werr := ev.True(e, env)
					got, gerr := sqlmini.RowTrue(whole, crow)
					if (werr == nil) != (gerr == nil) || got != want {
						t.Fatalf("%s.%s on %v: interpreter (%v, %v), compiled (%v, %v)\nconstraint: %s",
							name, col, row, want, werr, got, gerr, e)
					}
					if wkeep[i] != want || (akeep != nil && akeep[i] != want) {
						t.Fatalf("%s.%s on %v: interpreter %v, whole sweep lane %v, arm %d of %d lane %v\nconstraint: %s",
							name, col, row, want, wkeep[i], arm, len(conds), akeep[i], e)
					}
				}
			}
		}
	}
}

// BenchmarkConstraintKernel is the C2 kernel: one column constraint
// decided on one candidate row. It pins the per-evaluation gap between
// the tree-walking interpreter (name resolution through a MapEnv,
// operator dispatch on strings) and the compiled kernels (position-bound,
// on the row as a one-row batch) on a real directory-table rule chain.
func BenchmarkConstraintKernel(b *testing.B) {
	spec, err := protocol.SpecBuilders()[0].Build() // D
	if err != nil {
		b.Fatal(err)
	}
	e := spec.Constraint("locmsg")
	if e == nil {
		b.Fatal("locmsg constraint missing")
	}
	ev := specEvaluator()
	cols := spec.Columns()
	colIdx := make(map[string]int, len(cols))
	for i, c := range cols {
		colIdx[c.Name] = i
	}
	row := make([]rel.Value, len(cols))
	env := make(sqlmini.MapEnv, len(cols))
	for i, c := range cols {
		d := c.Domain()
		row[i] = d[len(d)-1]
		env[c.Name] = row[i]
	}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.True(e, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		pred, err := ev.CompileVec(e, colIdx)
		if err != nil {
			b.Fatal(err)
		}
		crow := make([]uint32, len(row))
		for i, v := range row {
			crow[i] = rel.SharedDict().Code(v)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sqlmini.RowTrue(pred, crow); err != nil {
				b.Fatal(err)
			}
		}
	})
}
