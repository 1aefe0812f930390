package constraint

import (
	"math/rand"
	"testing"
)

// TestVectorizedSweepMatchesScalar is the solver half of the vectorized-
// execution equivalence gate: the Fig. 3 fragment and a batch of random
// specs must generate row-identical tables whether each constraint is
// decided for whole domains through EvalSweepTrue (Solve, with rule chains
// split into selector arms) or row at a time through the whole
// constraint's scalar program (MonolithicOpts).
func TestVectorizedSweepMatchesScalar(t *testing.T) {
	specs := []*Spec{figure3Spec(t)}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		specs = append(specs, randomSpec(rng))
	}
	for i, s := range specs {
		vec, _, err := Solve(s)
		if err != nil {
			t.Fatalf("spec %d vectorized: %v", i, err)
		}
		scal, _, err := MonolithicOpts(s, Options{})
		if err != nil {
			t.Fatalf("spec %d scalar: %v", i, err)
		}
		eq, err := vec.EqualRows(scal)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !eq || vec.NumRows() != scal.NumRows() {
			t.Fatalf("spec %d: vectorized sweep produced %d rows, scalar %d",
				i, vec.NumRows(), scal.NumRows())
		}
	}
}
