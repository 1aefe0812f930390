package deadlock

import (
	"fmt"
	"math/rand"
	"testing"
)

// randDepRows generates a small random dependency table over a handful of
// messages, roles and channels.
func randDepRows(rng *rand.Rand, n int) []DepRow {
	msgs := []string{"m1", "m2", "m3"}
	roles := []string{"local", "home", "remote"}
	vcs := []string{"VC0", "VC1", "VC2"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	out := make([]DepRow, n)
	for i := range out {
		out[i] = DepRow{
			In:     VAssign{M: pick(msgs), S: pick(roles), D: pick(roles), VC: pick(vcs)},
			Out:    VAssign{M: pick(msgs), S: pick(roles), D: pick(roles), VC: pick(vcs)},
			Origin: "t",
		}
	}
	return out
}

// Property: the production composer, fed string tables through the VAssign
// interner, produces exactly the string-keyed oracle's protocol table — the
// same rows in the same first-occurrence order with the same origins, and
// the same counts — relaxed and exact, with and without closure.
func TestQuickInternedComposeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		sets := make([][][]DepRow, 1+rng.Intn(3))
		for si := range sets {
			sets[si] = make([][]DepRow, 1+rng.Intn(4))
			for ti := range sets[si] {
				rows := randDepRows(rng, rng.Intn(12))
				origin := fmt.Sprintf("T%d@p%d", ti, si)
				for i := range rows {
					rows[i].Origin = origin
				}
				sets[si][ti] = rows
			}
		}
		relaxed, closure := rng.Intn(2) == 0, rng.Intn(4) == 0
		want, composed, rounds := oracleProtocol(sets, relaxed, closure)
		a := &atoms{ids: map[quad]int32{}}
		tabs := make([][]*itable, len(sets))
		for si, set := range sets {
			for _, rows := range set {
				tabs[si] = append(tabs[si], a.table(rows))
			}
		}
		comp := composeProtocol(tabs, a, relaxed, closure)
		if comp.composed != composed || comp.rounds != rounds {
			t.Fatalf("trial %d (relaxed=%v closure=%v): composed/rounds = %d/%d, oracle %d/%d",
				trial, relaxed, closure, comp.composed, comp.rounds, composed, rounds)
		}
		got, _, _ := a.depRows(comp)
		if len(got) != len(want) {
			t.Fatalf("trial %d (relaxed=%v closure=%v): %d rows, oracle %d",
				trial, relaxed, closure, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (relaxed=%v closure=%v): row %d = %s, oracle %s",
					trial, relaxed, closure, i, got[i], want[i])
			}
		}
	}
}

// Property: relaxed composition finds a superset of exact composition.
func TestQuickRelaxedSupersetOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		a := randDepRows(rng, 1+rng.Intn(10))
		b := randDepRows(rng, 1+rng.Intn(10))
		exact := Compose(a, b, false)
		relaxed := Compose(a, b, true)
		if len(relaxed) < len(exact) {
			t.Fatalf("trial %d: relaxed %d < exact %d", trial, len(relaxed), len(exact))
		}
		// Every exact composition appears among the relaxed ones.
		have := map[string]bool{}
		for _, r := range relaxed {
			have[r.In.String()+r.Out.String()] = true
		}
		for _, r := range exact {
			if !have[r.In.String()+r.Out.String()] {
				t.Fatalf("trial %d: exact row %s lost under relaxation", trial, r)
			}
		}
	}
}

// Property: composition output rows pair an input of the first table with
// an output of the second (never invent assignments).
func TestQuickComposeProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		a := randDepRows(rng, 1+rng.Intn(8))
		b := randDepRows(rng, 1+rng.Intn(8))
		ins := map[VAssign]bool{}
		for _, r := range a {
			ins[r.In] = true
		}
		outs := map[VAssign]bool{}
		for _, r := range b {
			outs[r.Out] = true
		}
		for _, r := range Compose(a, b, true) {
			if !ins[r.In] || !outs[r.Out] {
				t.Fatalf("trial %d: composed row %s not grounded in inputs", trial, r)
			}
		}
	}
}

// Property: applying a placement never changes channels, only roles.
func TestQuickPlacementPreservesChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		rows := randDepRows(rng, 1+rng.Intn(10))
		for _, p := range Placements() {
			for _, r := range rows {
				m := applyPlacement(r, p)
				if m.In.VC != r.In.VC || m.Out.VC != r.Out.VC {
					t.Fatalf("placement %s changed a channel", p.Name)
				}
				if m.In.M != r.In.M || m.Out.M != r.Out.M {
					t.Fatalf("placement %s changed a message", p.Name)
				}
			}
		}
	}
}

// Property: dedupe is idempotent and order-preserving for first occurrences.
func TestQuickDedupeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 100; trial++ {
		rows := randDepRows(rng, rng.Intn(20))
		d1 := dedupe(rows)
		d2 := dedupe(d1)
		if len(d1) != len(d2) {
			t.Fatalf("trial %d: dedupe not idempotent", trial)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("trial %d: dedupe reordered", trial)
			}
		}
	}
}

// Property: the VCG edge set is exactly the distinct (vc1, vc2) pairs.
func TestQuickVCGEdgesMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 50; trial++ {
		rows := randDepRows(rng, 1+rng.Intn(30))
		g := NewVCG(rows)
		want := map[Edge]bool{}
		for _, r := range rows {
			want[Edge{From: r.In.VC, To: r.Out.VC}] = true
		}
		got := g.Edges()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(got), len(want))
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("trial %d: phantom edge %s", trial, e)
			}
			if len(g.Evidence(e)) == 0 {
				t.Fatalf("trial %d: edge %s has no evidence", trial, e)
			}
		}
	}
}
