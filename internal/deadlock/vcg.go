package deadlock

import (
	"cmp"
	"slices"
	"strings"
)

// Edge is one arc of the virtual channel dependency graph: From depends on
// To (§4.1: "a directed edge (vc1, vc2) means that the virtual channel vc1
// depends on the virtual channel vc2").
type Edge struct {
	From, To string
}

func (e Edge) String() string { return e.From + " -> " + e.To }

// VCG is the virtual channel dependency graph over dense channel ids, with
// the dependency rows supporting each edge retained as evidence: indexes
// into the rows it was built from.
type VCG struct {
	rows  []DepRow
	nodes []string  // channels, sorted; a channel's id is its position
	adj   [][]int32 // per channel, its successors' ids ascending
	// evidence[i*len(nodes)+j] lists the rows supporting the edge from
	// channel i to channel j, in row order.
	evidence [][]int32
}

// newVCG builds the graph from protocol dependency rows whose channels are
// numbered: row i makes channel ends[2i] depend on channel ends[2i+1], and
// names[id] names channel id, which some row uses. It keeps rows, which
// the caller must not modify.
func newVCG(rows []DepRow, ends []int32, names []string) *VCG {
	// Renumber the channels in name order, so ids compare as names do.
	g := &VCG{rows: rows, nodes: slices.Clone(names)}
	slices.Sort(g.nodes)
	n := int32(len(names))
	rank := make([]int32, n)
	for i, vc := range names {
		rank[i] = int32(slices.Index(g.nodes, vc))
	}
	g.evidence = make([][]int32, n*n)
	for i := range rows {
		k := rank[ends[2*i]]*n + rank[ends[2*i+1]]
		g.evidence[k] = append(g.evidence[k], int32(i))
	}
	g.adj = make([][]int32, n)
	for k, ev := range g.evidence {
		if len(ev) > 0 {
			g.adj[int32(k)/n] = append(g.adj[int32(k)/n], int32(k)%n)
		}
	}
	return g
}

// Nodes returns the channels, sorted.
func (g *VCG) Nodes() []string { return append([]string(nil), g.nodes...) }

// Edges returns the distinct edges, sorted.
func (g *VCG) Edges() []Edge {
	var out []Edge
	for from, tos := range g.adj {
		for _, to := range tos {
			out = append(out, Edge{From: g.nodes[from], To: g.nodes[to]})
		}
	}
	return out
}

// evidenceOf returns the indexes of the rows supporting an edge.
func (g *VCG) evidenceOf(e Edge) []int32 {
	from, fok := slices.BinarySearch(g.nodes, e.From)
	to, tok := slices.BinarySearch(g.nodes, e.To)
	if !fok || !tok {
		return nil
	}
	return g.evidence[from*len(g.nodes)+to]
}

// Evidence returns the dependency rows supporting an edge.
func (g *VCG) Evidence(e Edge) []DepRow {
	var out []DepRow
	for _, r := range g.evidenceOf(e) {
		out = append(out, g.rows[r])
	}
	return out
}

// Cycle is one elementary cycle, as the sequence of channels visited (the
// first channel is repeated implicitly).
type Cycle []string

func (c Cycle) String() string {
	return strings.Join(append(append([]string{}, c...), c[0]), " -> ")
}

// Cycles enumerates the elementary cycles of the graph (Johnson-style DFS;
// the graph has at most a handful of channels, so simplicity wins). Each
// cycle is found once, from its smallest channel, which it starts at.
func (g *VCG) Cycles() []Cycle {
	var cycles []Cycle
	var stack []int32
	onStack := make([]bool, len(g.nodes))

	var dfs func(start, u int32)
	dfs = func(start, u int32) {
		stack = append(stack, u)
		onStack[u] = true
		for _, w := range g.adj[u] {
			if w == start {
				c := make(Cycle, len(stack))
				for i, id := range stack {
					c[i] = g.nodes[id]
				}
				cycles = append(cycles, c)
				continue
			}
			// Only explore channels after start, so a cycle is rooted
			// at its smallest channel only.
			if w < start || onStack[w] {
				continue
			}
			dfs(start, w)
		}
		stack = stack[:len(stack)-1]
		onStack[u] = false
	}
	for n := range g.nodes {
		dfs(int32(n), int32(n))
	}
	slices.SortFunc(cycles, func(a, b Cycle) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(strings.Join(a, ","), strings.Join(b, ",")))
	})
	return cycles
}

// CycleEvidence returns, for each consecutive edge of the cycle, one
// supporting dependency row.
func (g *VCG) CycleEvidence(c Cycle) []DepRow {
	out := make([]DepRow, 0, len(c))
	for i := range c {
		if rows := g.evidenceOf(Edge{From: c[i], To: c[(i+1)%len(c)]}); len(rows) > 0 {
			out = append(out, g.rows[rows[0]])
		}
	}
	return out
}
