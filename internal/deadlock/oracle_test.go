package deadlock

import (
	"fmt"
	"slices"
	"strings"

	"coherdb/internal/rel"
)

// The string path the analysis originally ran on, kept as the oracle the
// code path is checked against: V keyed by strings (oracleAssignment),
// controller dependency tables read cell by cell (ControllerDeps),
// placements applied to DepRows (applyPlacement), the string-keyed
// composer (Compose, oracleProtocol) and the analysis built from them
// (oracleAnalyze). Beside it are the VAssign interner that feeds string
// tables to the production composer (atoms.table), NewVCG, which builds a
// graph from DepRows, Acyclic, the Kahn's-algorithm cross-check of
// Cycles' verdict, and Describe, the account of a graph the frozen golden
// digests.

// Channel returns the channel assigned to (m, s, d), or "" if the hop is
// not a tracked channel resource.
func (a *Assignment) Channel(m, s, d string) string {
	code := func(x string) uint32 {
		c, _ := rel.SharedDict().LookupCode(rel.S(x))
		return c
	}
	return rel.SharedDict().Value(a.vc[[3]uint32{code(m), code(s), code(d)}]).Str()
}

// strAssignment is V keyed by strings; "" marks an untracked hop.
type strAssignment map[VKey]string

func (a strAssignment) Channel(m, s, d string) string { return a[VKey{M: m, S: s, D: d}] }

// oracleAssignment builds V the way NewAssignment did on strings: every
// cell decoded, a non-string channel read as "".
func oracleAssignment(v *rel.Table) (strAssignment, error) {
	for _, c := range []string{"m", "s", "d", "v"} {
		if !v.HasColumn(c) {
			return nil, fmt.Errorf("%w: missing column %q", ErrBadAssignment, c)
		}
	}
	a := make(strAssignment, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		k := VKey{M: v.Get(i, "m").Str(), S: v.Get(i, "s").Str(), D: v.Get(i, "d").Str()}
		if k.M == "" || k.S == "" || k.D == "" || v.Get(i, "v").IsNull() {
			return nil, fmt.Errorf("%w: row %d has empty fields", ErrBadAssignment, i)
		}
		if prev, dup := a[k]; dup && prev != v.Get(i, "v").Str() {
			return nil, fmt.Errorf("%w: %v assigned to both %s and %s", ErrBadAssignment, k, prev, v.Get(i, "v").Str())
		}
		a[k] = v.Get(i, "v").Str()
	}
	return a, nil
}

// ControllerDeps builds the individual controller dependency table of one
// controller (§4.1) on strings: for every row and every non-NULL outgoing
// message, if both the incoming and outgoing (message, source,
// destination) triples are assigned channels in V, a dependency row is
// produced. One entry is added per outgoing message.
func ControllerDeps(t *rel.Table, v strAssignment) ([]DepRow, error) {
	in, outs, err := msgGroups(t)
	if err != nil {
		return nil, err
	}
	name := t.ColumnsRef()
	var rows []DepRow
	for i := 0; i < t.NumRows(); i++ {
		im := t.Get(i, name[in.m])
		if im.IsNull() {
			continue
		}
		inA := VAssign{M: im.Str(), S: t.Get(i, name[in.s]).Str(), D: t.Get(i, name[in.d]).Str()}
		inA.VC = v.Channel(inA.M, inA.S, inA.D)
		if inA.VC == "" {
			continue // input not on a tracked channel
		}
		for _, g := range outs {
			om := t.Get(i, name[g.m])
			if om.IsNull() {
				continue
			}
			outA := VAssign{M: om.Str(), S: t.Get(i, name[g.s]).Str(), D: t.Get(i, name[g.d]).Str()}
			outA.VC = v.Channel(outA.M, outA.S, outA.D)
			if outA.VC == "" {
				continue // output over a dedicated/internal path
			}
			rows = append(rows, DepRow{In: inA, Out: outA, Origin: t.Name()})
		}
	}
	return rows, nil
}

// Apply substitutes a role.
func (p Placement) Apply(role string) string {
	if r, ok := p.Subst[role]; ok {
		return r
	}
	return role
}

// applyPlacement substitutes quad-placement role identifications in a
// dependency row. Channels are kept: co-located roles share the physical
// link, which is exactly what makes the dependency arise (§4.1).
func applyPlacement(r DepRow, p Placement) DepRow {
	r.In.S, r.In.D = p.Apply(r.In.S), p.Apply(r.In.D)
	r.Out.S, r.Out.D = p.Apply(r.Out.S), p.Apply(r.Out.D)
	if p.Name != "L!=H!=R" {
		r.Origin = r.Origin + "@" + p.Name
	}
	return r
}

// table is the VAssign interner: it encodes a string dependency table,
// whose rows share one origin, into an atom table.
func (a *atoms) table(rows []DepRow) *itable {
	code := func(s string) uint32 { return rel.SharedDict().Code(rel.S(s)) }
	atom := func(v VAssign) int32 { return a.intern(quad{code(v.M), code(v.S), code(v.D), code(v.VC)}) }
	t := &itable{in: make([]int32, len(rows)), out: make([]int32, len(rows))}
	for i, r := range rows {
		t.in[i], t.out[i], t.origin = atom(r.In), atom(r.Out), r.Origin
	}
	return t
}

// oracleReport is what the string path derives for one analysis.
type oracleReport struct {
	rows  []DepRow
	stats Stats // every count but Nodes, Edges and Cycles
}

// oracleAnalyze runs the analysis on the string path.
func oracleAnalyze(controllers []*rel.Table, v *rel.Table, opts Options) (*oracleReport, error) {
	assign, err := oracleAssignment(v)
	if err != nil {
		return nil, err
	}
	var individual [][]DepRow
	var st Stats
	for _, t := range controllers {
		rows, err := ControllerDeps(t, assign)
		if err != nil {
			return nil, err
		}
		individual = append(individual, rows)
		st.ControllerRows += len(rows)
	}
	placements := Placements()
	if opts.NoPlacements {
		placements = placements[:1]
	}
	sets := make([][][]DepRow, len(placements))
	for pi, p := range placements {
		for _, rows := range individual {
			mod := make([]DepRow, len(rows))
			for i, r := range rows {
				mod[i] = applyPlacement(r, p)
			}
			sets[pi] = append(sets[pi], mod)
			st.PlacementRows += len(mod)
		}
	}
	rows, composed, rounds := oracleProtocol(sets, opts.Relaxed, opts.Closure)
	st.ComposedRows, st.Rounds, st.ProtocolRows = composed, rounds, len(rows)
	return &oracleReport{rows: rows, stats: st}, nil
}

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
// run, on strings: every individual row, then Compose over every ordered
// table pair of every set, keeping the first occurrence of each (input,
// output) pair; under closure the result is composed with itself until it
// stops growing. A composed pair is checked before its row is built: the
// story's closure rounds offer millions of repeats.
func oracleProtocol(sets [][][]DepRow, relaxed, closure bool) (rows []DepRow, composed, rounds int) {
	key := composeKeyExact
	if relaxed {
		key = composeKeyRelaxed
	}
	seen := map[[2]VAssign]bool{}
	add := func(r DepRow) {
		if !seen[[2]VAssign{r.In, r.Out}] {
			seen[[2]VAssign{r.In, r.Out}] = true
			rows = append(rows, r)
		}
	}
	// join adds Compose(t1, t2, relaxed)'s new rows and returns how many
	// rows Compose has.
	join := func(t1, t2 []DepRow) int {
		byIn := map[string][]int{}
		for j, s := range t2 {
			byIn[key(s.In)] = append(byIn[key(s.In)], j)
		}
		n := 0
		for _, r := range t1 {
			for _, j := range byIn[key(r.Out)] {
				n++
				if s := t2[j]; !seen[[2]VAssign{r.In, s.Out}] {
					add(DepRow{In: r.In, Out: s.Out, Origin: r.Origin + "*" + s.Origin})
				}
			}
		}
		return n
	}
	for _, set := range sets {
		for _, t := range set {
			for _, r := range t {
				add(r)
			}
		}
	}
	for _, set := range sets {
		for _, t1 := range set {
			for _, t2 := range set {
				composed += join(t1, t2)
			}
		}
	}
	for rounds = 1; closure; rounds++ {
		before := len(rows)
		join(rows[:before], rows[:before])
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

// NewVCG builds the graph from protocol dependency rows, numbering their
// channels as it meets them.
func NewVCG(rows []DepRow) *VCG {
	var names []string
	ends := make([]int32, 2*len(rows))
	for i, r := range rows {
		for j, vc := range [2]string{r.In.VC, r.Out.VC} {
			id := slices.Index(names, vc)
			if id < 0 {
				id = len(names)
				names = append(names, vc)
			}
			ends[2*i+j] = int32(id)
		}
	}
	return newVCG(rows, ends, names)
}

// Acyclic reports whether the graph has no cycles — the §4.1 deadlock
// freedom condition.
func (g *VCG) Acyclic() bool {
	// Kahn's algorithm; cheaper than enumerating cycles.
	indeg := make([]int, len(g.nodes))
	for _, tos := range g.adj {
		for _, to := range tos {
			indeg[to]++
		}
	}
	var queue []int32
	for n := range g.nodes {
		if indeg[n] == 0 {
			queue = append(queue, int32(n))
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
		fmt.Fprintf(&sb, "  %s  (%d dependencies)\n", e, len(g.evidenceOf(e)))
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
