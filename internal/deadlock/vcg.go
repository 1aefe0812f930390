package deadlock

import (
	"sort"
	"strings"
)

// Edge is one arc of the virtual channel dependency graph: From depends on
// To (§4.1: "a directed edge (vc1, vc2) means that the virtual channel vc1
// depends on the virtual channel vc2").
type Edge struct {
	From, To string
}

func (e Edge) String() string { return e.From + " -> " + e.To }

// VCG is the virtual channel dependency graph, with the dependency rows
// supporting each edge retained as evidence.
type VCG struct {
	nodes    []string
	adj      map[string][]string
	evidence map[Edge][]DepRow
}

// NewVCG builds the graph from protocol dependency rows.
func NewVCG(rows []DepRow) *VCG {
	g := &VCG{adj: make(map[string][]string), evidence: make(map[Edge][]DepRow)}
	nodeSet := map[string]bool{}
	for _, r := range rows {
		e := Edge{From: r.In.VC, To: r.Out.VC}
		if _, have := g.evidence[e]; !have {
			g.adj[e.From] = append(g.adj[e.From], e.To)
		}
		g.evidence[e] = append(g.evidence[e], r)
		nodeSet[e.From] = true
		nodeSet[e.To] = true
	}
	for n := range nodeSet {
		g.nodes = append(g.nodes, n)
	}
	sort.Strings(g.nodes)
	for n := range g.adj {
		sort.Strings(g.adj[n])
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
			out = append(out, Edge{From: from, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Evidence returns the dependency rows supporting an edge.
func (g *VCG) Evidence(e Edge) []DepRow { return g.evidence[e] }

// Cycle is one elementary cycle, as the sequence of channels visited (the
// first channel is repeated implicitly).
type Cycle []string

func (c Cycle) String() string {
	return strings.Join(append(append([]string{}, c...), c[0]), " -> ")
}

// Cycles enumerates the elementary cycles of the graph (Johnson-style DFS;
// the graph has at most a handful of channels, so simplicity wins). Cycles
// are canonicalized to start at their smallest channel and deduplicated.
func (g *VCG) Cycles() []Cycle {
	var cycles []Cycle
	seen := map[string]bool{}
	var stack []string
	onStack := map[string]bool{}

	var dfs func(start, u string)
	dfs = func(start, u string) {
		stack = append(stack, u)
		onStack[u] = true
		for _, w := range g.adj[u] {
			if w == start {
				// Found a cycle back to the start.
				c := canonical(append([]string(nil), stack...))
				k := strings.Join(c, "\x1f")
				if !seen[k] {
					seen[k] = true
					cycles = append(cycles, c)
				}
				continue
			}
			// Only explore nodes >= start to avoid re-finding cycles
			// rooted at smaller nodes.
			if w < start || onStack[w] {
				continue
			}
			dfs(start, w)
		}
		stack = stack[:len(stack)-1]
		onStack[u] = false
	}
	for _, n := range g.nodes {
		dfs(n, n)
	}
	sort.Slice(cycles, func(i, j int) bool {
		if len(cycles[i]) != len(cycles[j]) {
			return len(cycles[i]) < len(cycles[j])
		}
		return strings.Join(cycles[i], ",") < strings.Join(cycles[j], ",")
	})
	return cycles
}

// canonical rotates a cycle so it starts at its smallest element.
func canonical(c []string) Cycle {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	return append(append(Cycle{}, c[min:]...), c[:min]...)
}

// CycleEvidence returns, for each consecutive edge of the cycle, one
// supporting dependency row.
func (g *VCG) CycleEvidence(c Cycle) []DepRow {
	out := make([]DepRow, 0, len(c))
	for i := range c {
		e := Edge{From: c[i], To: c[(i+1)%len(c)]}
		rows := g.evidence[e]
		if len(rows) > 0 {
			out = append(out, rows[0])
		}
	}
	return out
}
