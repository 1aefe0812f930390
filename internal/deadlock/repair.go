package deadlock

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"coherdb/internal/rel"
)

// Repair automates the §4.2 loop: "The cycles that lead to deadlocks are
// resolved by modifying V and/or by adding more virtual channels. The
// process is repeated until no deadlocks are found."
//
// Each iteration analyzes the current assignment and, if cycles remain,
// picks the hop (message, source, destination) that participates in the
// most cycle edges and either moves it onto a fresh virtual channel or —
// if moving it has been tried before — dedicates it (removes it from V,
// modeling a dedicated hardware path, the fix the paper ultimately needed
// for the directory->memory requests). Dedication strictly removes
// dependencies, so the loop terminates.

// RepairAction records one modification of V.
type RepairAction struct {
	// Kind is "move" or "dedicate".
	Kind string
	// M, S, D identify the reassigned hop.
	M, S, D string
	// NewVC is the fresh channel for a move.
	NewVC string
	// Cycles is the cycle count before this action.
	Cycles int
}

func (a RepairAction) String() string {
	if a.Kind == "move" {
		return fmt.Sprintf("move (%s, %s, %s) to %s [%d cycles]", a.M, a.S, a.D, a.NewVC, a.Cycles)
	}
	return fmt.Sprintf("dedicate (%s, %s, %s) [%d cycles]", a.M, a.S, a.D, a.Cycles)
}

// RepairResult is the outcome of a repair run.
type RepairResult struct {
	// Final is the repaired assignment table.
	Final *rel.Table
	// Actions lists the modifications in order.
	Actions []RepairAction
	// Report is the analysis of the final assignment.
	Report *Report
	// Converged reports whether the final assignment is cycle free.
	Converged bool
}

// Repair runs the loop for at most maxIter iterations. The input V is not
// modified.
func Repair(controllers []*rel.Table, v *rel.Table, opts Options, maxIter int) (*RepairResult, error) {
	if maxIter <= 0 {
		maxIter = 32
	}
	cur := v.Clone().SetName("V")
	res := &RepairResult{}
	moved := map[VKey]bool{}
	freshID := 0

	for iter := 0; iter < maxIter; iter++ {
		rep, err := Analyze(controllers, cur, opts)
		if err != nil {
			return nil, err
		}
		res.Report = rep
		res.Final = cur
		if !rep.Deadlocked() {
			res.Converged = true
			return res, nil
		}
		hop, ok := worstHop(rep, moved)
		if !ok {
			// Every hop on every cycle has already been dedicated away;
			// should be impossible, but terminate defensively.
			return res, nil
		}
		act := RepairAction{M: hop.M, S: hop.S, D: hop.D, Cycles: len(rep.Cycles)}
		if moved[hop] {
			act.Kind = "dedicate"
			cur = cur.Select(func(r rel.Row) bool {
				return !(r.Get("m").Equal(rel.S(hop.M)) &&
					r.Get("s").Equal(rel.S(hop.S)) &&
					r.Get("d").Equal(rel.S(hop.D)))
			}).SetName("V")
		} else {
			act.Kind = "move"
			freshID++
			act.NewVC = fmt.Sprintf("VCR%d", freshID)
			moved[hop] = true
			next := cur.Clone()
			for i := 0; i < next.NumRows(); i++ {
				if next.Get(i, "m").Equal(rel.S(hop.M)) &&
					next.Get(i, "s").Equal(rel.S(hop.S)) &&
					next.Get(i, "d").Equal(rel.S(hop.D)) {
					if err := next.Set(i, "v", rel.S(act.NewVC)); err != nil {
						return nil, err
					}
				}
			}
			cur = next
		}
		res.Actions = append(res.Actions, act)
	}
	// Out of budget: return the last analysis.
	rep, err := Analyze(controllers, cur, opts)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	res.Final = cur
	res.Converged = !rep.Deadlocked()
	return res, nil
}

// worstHop picks the (m, s, d) hop participating in the most cycle-edge
// evidence rows, preferring hops not yet moved. Output hops are counted:
// moving the *awaited* channel is what breaks a wait.
func worstHop(rep *Report, moved map[VKey]bool) (VKey, bool) {
	// Count the cycles through each edge first, then add that count to
	// each of the edge's evidence rows once: an edge shared by many
	// cycles is read once, not once per cycle.
	g := rep.Graph
	n := len(g.nodes)
	perEdge := make([]int, n*n)
	for _, c := range rep.Cycles {
		for i := range c {
			from, fok := slices.BinarySearch(g.nodes, c[i])
			to, tok := slices.BinarySearch(g.nodes, c[(i+1)%len(c)])
			if fok && tok {
				perEdge[from*n+to]++
			}
		}
	}
	counts := map[VKey]int{}
	for k, cycles := range perEdge {
		if cycles == 0 {
			continue
		}
		for _, r := range g.evidence[k] {
			out := g.rows[r].Out
			counts[VKey{M: out.M, S: out.S, D: out.D}] += cycles
		}
	}
	type cand struct {
		k VKey
		n int
	}
	var cands []cand
	for k, n := range counts {
		cands = append(cands, cand{k, n})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(b.n, a.n), strings.Compare(a.k.M, b.k.M), strings.Compare(a.k.S, b.k.S), strings.Compare(a.k.D, b.k.D))
	})
	// Prefer an unmoved hop; otherwise the most-counted moved one
	// (which will be dedicated).
	for _, c := range cands {
		if !moved[c.k] {
			return c.k, true
		}
	}
	if len(cands) > 0 {
		return cands[0].k, true
	}
	return VKey{}, false
}
