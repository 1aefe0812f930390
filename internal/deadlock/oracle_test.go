package deadlock

import (
	"fmt"
	"strings"
)

// The string-keyed composer the analysis originally ran on, kept as the
// oracle the interned composer (compose.go) is checked against, with
// Acyclic, the Kahn's-algorithm cross-check of Cycles' verdict, and
// Describe, the account of a graph the frozen golden digests.

// composeKeyExact keys an assignment on (m, s, d, v) for the exact
// composition requirement.
func composeKeyExact(a VAssign) string {
	return a.M + "\x1f" + a.S + "\x1f" + a.D + "\x1f" + a.VC
}

// composeKeyRelaxed keys an assignment on (s, d, v), ignoring the message —
// the §4.1 relaxation that captures transaction interleavings: two
// different transactions' messages meeting on the same channel between the
// same endpoints.
func composeKeyRelaxed(a VAssign) string {
	return a.S + "\x1f" + a.D + "\x1f" + a.VC
}

// Compose builds the pairwise dependency table of t1 and t2 (§4.1): for
// rows R=(R1,R2) in t1 and S=(S3,S4) in t2, if R2 matches S3 the row
// (R1,S4) is added; by symmetry S composed with R adds (S3,R2) when S4
// matches R1. With relaxed true the match ignores messages.
func Compose(t1, t2 []DepRow, relaxed bool) []DepRow {
	key := composeKeyExact
	if relaxed {
		key = composeKeyRelaxed
	}
	// Index t2 rows by input key.
	byIn := make(map[string][]int, len(t2))
	for j, s := range t2 {
		byIn[key(s.In)] = append(byIn[key(s.In)], j)
	}
	var out []DepRow
	for _, r := range t1 {
		for _, j := range byIn[key(r.Out)] {
			s := t2[j]
			out = append(out, DepRow{
				In:     r.In,
				Out:    s.Out,
				Origin: r.Origin + "*" + s.Origin,
			})
		}
	}
	return out
}

// oracleProtocol is composeProtocol written the way the analysis used to
// run: union every individual row, append Compose over every ordered table
// pair of every set, dedupe, and under closure compose the result with
// itself until it stops growing.
func oracleProtocol(sets [][][]DepRow, relaxed, closure bool) (rows []DepRow, composed, rounds int) {
	for _, set := range sets {
		for _, t := range set {
			rows = append(rows, t...)
		}
	}
	for _, set := range sets {
		for _, t1 := range set {
			for _, t2 := range set {
				c := Compose(t1, t2, relaxed)
				composed += len(c)
				rows = append(rows, c...)
			}
		}
	}
	rows, rounds = dedupe(rows), 1
	for closure {
		before := len(rows)
		rows = dedupe(append(rows, Compose(rows, rows, relaxed)...))
		rounds++
		closure = len(rows) > before
	}
	return rows, composed, rounds
}

// dedupe removes duplicate dependency rows (same assignments, any origin),
// keeping the first occurrence.
func dedupe(rows []DepRow) []DepRow {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := composeKeyExact(r.In) + "\x1e" + composeKeyExact(r.Out)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

// Acyclic reports whether the graph has no cycles — the §4.1 deadlock
// freedom condition.
func (g *VCG) Acyclic() bool {
	// Kahn's algorithm; cheaper than enumerating cycles.
	indeg := map[string]int{}
	for _, n := range g.nodes {
		indeg[n] = 0
	}
	for _, tos := range g.adj {
		for _, to := range tos {
			indeg[to]++
		}
	}
	queue := make([]string, 0, len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	removed := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		removed++
		for _, to := range g.adj[n] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	return removed == len(g.nodes)
}

// Describe renders a human-readable account of the graph and its cycles.
func (g *VCG) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "VCG: %d channels, %d edges\n", len(g.nodes), len(g.Edges()))
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %s  (%d dependencies)\n", e, len(g.evidence[e]))
	}
	cycles := g.Cycles()
	if len(cycles) == 0 {
		sb.WriteString("no cycles: deadlock free\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%d cycle(s):\n", len(cycles))
	for _, c := range cycles {
		fmt.Fprintf(&sb, "  %s\n", c)
		for _, ev := range g.CycleEvidence(c) {
			fmt.Fprintf(&sb, "    via %s\n", ev)
		}
	}
	return sb.String()
}
