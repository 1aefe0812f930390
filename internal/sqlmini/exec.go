package sqlmini

import (
	"fmt"
	"slices"
	"sort"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
)

// frame is the working relation during SELECT execution, column-major:
// one dictionary-code vector per column, the vectors' length n, and an
// optional selection vector. Without sel the frame's rows are the vector
// positions 0..n-1; with it they are sel's entries, strictly increasing.
// A scan frame's vectors are the table's own (zero copy) and its pushed
// kernels only narrow sel; a join's output and the final projection are
// the only steps that gather codes. n is kept apart from the vectors so a
// frame without columns keeps its rows: the FROM-less SELECT's one row,
// or a zero-column table.
type frame struct {
	cols [][]uint32
	n    int
	sel  []uint32
}

// tableFrame is the whole-table frame over t's own column vectors.
// Frames never write to their vectors, and the statement pins its
// catalog epoch, so the storage cannot change underneath it.
func tableFrame(t *rel.Table) *frame {
	f := &frame{cols: make([][]uint32, t.NumCols()), n: t.NumRows()}
	for j := range f.cols {
		f.cols[j] = t.ColCodes(j)
	}
	return f
}

// len returns the frame's row count.
func (f *frame) len() int {
	if f.sel != nil {
		return len(f.sel)
	}
	return f.n
}

// row returns the vector position of the frame's k-th row.
func (f *frame) row(k int) uint32 {
	if f.sel != nil {
		return f.sel[k]
	}
	return uint32(k)
}

// rows returns the vector positions of the frame's rows, in order.
func (f *frame) rows() []uint32 {
	if f.sel != nil {
		return f.sel
	}
	return identity(make([]uint32, f.n))
}

// identity fills sel with 0, 1, ... and returns it.
func identity(sel []uint32) []uint32 {
	for i := range sel {
		sel[i] = uint32(i)
	}
	return sel
}

// scope is a row layout as the planner sees it: the table alias and the
// column name of each position. Only the planner resolves names; the
// executor reads the positions it bound.
type scope struct {
	aliases []string
	names   []string
}

// resolve finds the column position for a (possibly qualified) name.
// It returns -1 when absent or ambiguous.
func (sc *scope) resolve(q, name string) int {
	found := -1
	for i := range sc.names {
		if sc.names[i] != name {
			continue
		}
		if q != "" {
			if sc.aliases[i] == q {
				return i
			}
			continue
		}
		if found >= 0 {
			return -1 // ambiguous unqualified reference
		}
		found = i
	}
	return found
}

func (r *run) execSelect(s *SelectStmt) (*rel.Table, error) {
	plans, err := r.plansFor(s)
	if err != nil {
		return nil, err
	}
	out, err := r.execSelectOne(firstBranch(s), plans[0])
	if err != nil {
		return nil, err
	}
	bi := 1
	for u, all := s.Union, s.UnionAll; u != nil; u, all = u.Union, u.UnionAll {
		// Each branch's own Union chain is cleared before execution to
		// avoid double-processing; we walk the chain here instead.
		branch := *u
		branch.Union = nil
		bt, err := r.execSelectOne(&branch, plans[bi])
		if err != nil {
			return nil, err
		}
		bi++
		if bt.NumCols() != out.NumCols() {
			return nil, fmt.Errorf("%w: UNION branches have %d and %d columns", rel.ErrSchema, out.NumCols(), bt.NumCols())
		}
		renamed, err := bt.Rename(renameTo(bt.Columns(), out.Columns()))
		if err != nil {
			return nil, err
		}
		detail := "DISTINCT"
		if all {
			detail = "ALL"
		}
		r.azBegin("union", "")
		r.azSet("", detail)
		if all {
			out, err = out.Union(renamed)
		} else {
			out, err = out.UnionDistinct(renamed)
		}
		if err != nil {
			return nil, err
		}
		r.azEnd(out.NumRows())
	}
	if s.Union == nil || (len(s.OrderBy) == 0 && s.Limit < 0) {
		return out, nil
	}
	cols := tableFrame(out).cols
	keys, err := orderKeys(plans[0].order, &frame{n: out.NumRows()}, cols)
	if err != nil {
		return nil, err
	}
	return r.finish(&SelectStmt{OrderBy: s.OrderBy, Limit: s.Limit}, out.Columns(), cols, out.NumRows(), keys)
}

func renameTo(from, to []string) map[string]string {
	m := make(map[string]string, len(from))
	for i := range from {
		m[from[i]] = to[i]
	}
	return m
}

func (r *run) execSelectOne(s *SelectStmt, plan *branchPlan) (*rel.Table, error) {
	// FROM clause: build the working frame. Each source is scanned per its
	// cached srcPlan — through a persistent index when the planner found an
	// equality conjunct, narrowed by its remaining pushed conjuncts.
	f := &frame{n: 1} // one row without columns for a FROM-less SELECT
	si := 0
	for i, ref := range s.From {
		r.azBegin("scan", refAlias(ref))
		g, err := r.scanSource(ref, plan.srcs[si])
		if err != nil {
			return nil, err
		}
		r.azEnd(g.len())
		si++
		if i == 0 {
			f = g
			continue
		}
		r.azBegin("cross", refAlias(ref))
		r.azSet("", "cross product")
		if f, err = r.loopJoin(f, g, nil, nil); err != nil {
			return nil, err
		}
		r.azEnd(f.len())
	}
	for j, jc := range s.Joins {
		r.azBegin("scan", refAlias(jc.Ref))
		g, err := r.scanSource(jc.Ref, plan.srcs[si])
		if err != nil {
			return nil, err
		}
		r.azEnd(g.len())
		si++
		r.azBegin("join", refAlias(jc.Ref))
		if f, err = r.join(f, g, &plan.joins[j], jc); err != nil {
			return nil, err
		}
		r.azEnd(f.len())
	}
	// WHERE (residue after pushdown). Like a row loop, it evaluates nothing
	// over no rows.
	if len(plan.residue) > 0 {
		r.azBegin("filter", "")
		if r.azTracks() {
			r.azSet("", andString(plan.residue))
		}
		if f.len() > 0 {
			if err := r.narrow(f, plan.resVecs); err != nil {
				return nil, err
			}
		}
		r.azEnd(f.len())
	}
	// The output: the select list over the frame, or over the group frame
	// of a grouped branch, and the ORDER BY keys over the output columns —
	// after the frame's own, unless the branch is grouped.
	op := &plan.out
	kf := f
	switch {
	case !op.grouped:
		r.qs.phase(obs.PhaseProject)
		r.azBegin("project", "")
	case len(s.GroupBy) > 0:
		r.azBegin("group", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("%d key(s)", len(s.GroupBy)))
		}
	default:
		r.azBegin("aggregate", "")
	}
	if op.grouped {
		var err error
		if f, err = r.group(f, op); err != nil {
			return nil, err
		}
		kf = &frame{n: f.len()}
	}
	out, err := project(f, op.items)
	if err != nil {
		return nil, err
	}
	keys, err := orderKeys(op.order, kf, out)
	if err != nil {
		return nil, err
	}
	r.azEnd(f.len())
	return r.finish(s, op.cols, out, f.len(), keys)
}

// column is an output expression's codes over a frame's rows, by the
// row's ordinal: a frame column read through its selection, or dense.
type column struct{ codes, sel []uint32 }

func (c column) at(k int) uint32 {
	if c.sel != nil {
		return c.codes[c.sel[k]]
	}
	return c.codes[k]
}

// column returns e's codes over f's rows: a direct column is read through
// the selection, and a compiled value runs once over f's rows.
func (f *frame) column(e outExpr) (column, error) {
	if e.at >= 0 {
		return column{codes: f.cols[e.at], sel: f.sel}, nil
	}
	codes := make([]uint32, f.len())
	return column{codes: codes}, f.eval(e.val, codes)
}

// eval writes v's code on f's k-th row into dst[k].
func (f *frame) eval(v *vecValue, dst []uint32) error {
	if f.sel != nil {
		return v.eval(f.cols, f.sel, dst)
	}
	sv := getSel(f.n)
	defer selPool.Put(sv)
	return v.eval(f.cols, identity(sv.s[:f.n]), dst)
}

// project evaluates the select list over f's rows into output columns: a
// direct column gathers its codes through the selection, a computed item
// runs its compiled value over the frame.
func project(f *frame, items []outExpr) ([][]uint32, error) {
	n := f.len()
	out := make([][]uint32, len(items))
	flat := make([]uint32, n*len(items))
	for c, it := range items {
		col := flat[c*n : (c+1)*n : (c+1)*n]
		switch {
		case it.at >= 0 && f.sel == nil:
			copy(col, f.cols[it.at][:n])
		case it.at >= 0:
			for k, i := range f.sel {
				col[k] = f.cols[it.at][i]
			}
		default:
			if err := f.eval(it.val, col); err != nil {
				return nil, err
			}
		}
		out[c] = col
	}
	return out, nil
}

// orderKeys evaluates the ORDER BY keys on every row of the layout f then
// out, or returns nil when there are none. The layout's columns the keys
// read are laid out densely over f's rows, as out's already are.
func orderKeys(order []outExpr, f *frame, out [][]uint32) ([][]rel.Value, error) {
	if len(order) == 0 {
		return nil, nil
	}
	n, w := f.len(), len(f.cols)
	lay := &frame{cols: make([][]uint32, w+len(out)), n: n}
	dense := func(p int) []uint32 {
		if lay.cols[p] == nil {
			switch {
			case p >= w:
				lay.cols[p] = out[p-w]
			case f.sel == nil:
				lay.cols[p] = f.cols[p][:n]
			default:
				c := make([]uint32, n)
				for k, ri := range f.sel {
					c[k] = f.cols[p][ri]
				}
				lay.cols[p] = c
			}
		}
		return lay.cols[p]
	}
	keys := make([][]rel.Value, n)
	flat := make([]rel.Value, len(keys)*len(order))
	for k := range keys {
		keys[k] = flat[k*len(order) : (k+1)*len(order)]
	}
	var codes []uint32
	for i, e := range order {
		var src []uint32
		if e.at >= 0 {
			src = dense(e.at)
		} else {
			for _, p := range e.reads {
				dense(p)
			}
			if codes == nil {
				codes = make([]uint32, n)
			}
			if err := lay.eval(e.val, codes); err != nil {
				return nil, err
			}
			src = codes
		}
		for k := range keys {
			keys[k][i] = dict.Value(src[k])
		}
	}
	return keys, nil
}

// group evaluates a grouped branch into its group frame: f's rows are
// bucketed by the GROUP BY keys, in order of first appearance — without
// keys the whole input is one group, even when it is empty — and each
// group is one row holding its first row's columns (NULLs for an empty
// group; only the columns in op.firsts are filled) and then one column
// per aggregate. HAVING narrows that frame on the kernels; the select
// list reads it.
func (r *run) group(f *frame, op *outPlan) (*frame, error) {
	r.qs.phase(obs.PhaseAggregate)
	// Group keys are 4 bytes per key code; codes are injective over
	// values, so code-byte keys bucket exactly as value keys would, and
	// the key string is allocated only the first time a group is seen (the
	// map probe with string(buf) does not allocate).
	n := f.len()
	keys := make([]column, len(op.keys))
	for i, e := range op.keys {
		var err error
		if keys[i], err = f.column(e); err != nil {
			return nil, err
		}
	}
	index := map[string]int32{}
	gid := make([]int32, n)
	var first []int // each group's first row
	var buf []byte
	for k := 0; k < n; k++ {
		buf = buf[:0]
		for _, c := range keys {
			buf = rel.AppendCodeKey(buf, c.at(k))
		}
		g, ok := index[string(buf)]
		if !ok {
			g = int32(len(first))
			index[string(buf)] = g
			first = append(first, k)
		}
		gid[k] = g
	}
	if len(op.keys) == 0 && len(first) == 0 {
		first = append(first, -1)
	}
	ng, width := len(first), len(f.cols)
	gf := &frame{cols: make([][]uint32, width+len(op.aggs)), n: ng}
	flat := make([]uint32, ng*(len(op.firsts)+len(op.aggs)))
	next := func() []uint32 {
		col := flat[:ng:ng]
		flat = flat[ng:]
		return col
	}
	for _, j := range op.firsts {
		col := next()
		for g, k := range first {
			if k >= 0 {
				col[g] = f.cols[j][f.row(k)]
			}
		}
		gf.cols[j] = col
	}
	for a, agg := range op.aggs {
		vals, err := agg.eval(f, gid, ng)
		if err != nil {
			return nil, err
		}
		col := next()
		for g, val := range vals {
			col[g] = dict.Code(val)
		}
		gf.cols[width+a] = col
	}
	if op.having != nil && ng > 0 {
		if err := r.narrow(gf, []*VecPred{op.having}); err != nil {
			return nil, err
		}
	}
	return gf, nil
}

// finish applies DISTINCT, ORDER BY and LIMIT to a branch's n output rows,
// held column-major in out with their ORDER BY keys, as a permutation of
// the rows, and builds the result table from the columns in its order.
// It replaces out's vectors but never writes into them.
func (r *run) finish(s *SelectStmt, names []string, out [][]uint32, n int, keys [][]rel.Value) (*rel.Table, error) {
	var perm []int // nil: the rows in order
	if s.Distinct {
		r.azBegin("distinct", "")
		seen := make(map[string]struct{}, n)
		perm = make([]int, 0, n)
		buf := make([]byte, 0, 4*len(out))
		for k := 0; k < n; k++ {
			buf = buf[:0]
			for _, col := range out {
				buf = rel.AppendCodeKey(buf, col[k])
			}
			if _, dup := seen[string(buf)]; !dup {
				seen[string(buf)] = struct{}{}
				perm = append(perm, k)
			}
		}
		n = len(perm)
		r.azEnd(n)
	}
	if len(s.OrderBy) > 0 {
		r.azBegin("sort", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("%d key(s)", len(s.OrderBy)))
		}
		if perm == nil {
			perm = make([]int, n)
			for i := range perm {
				perm[i] = i
			}
		}
		sort.SliceStable(perm, func(a, b int) bool {
			for i, k := range s.OrderBy {
				c := keys[perm[a]][i].Compare(keys[perm[b]][i])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		r.azEnd(n)
	}
	if s.Limit >= 0 {
		r.azBegin("limit", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("LIMIT %d", s.Limit))
		}
		n = min(n, s.Limit)
		r.azEnd(n)
	}
	res, err := rel.NewTable("result", names...)
	if err != nil {
		return nil, err
	}
	for c, col := range out {
		if perm == nil {
			out[c] = col[:n]
			continue
		}
		out[c] = make([]uint32, n)
		for k, i := range perm[:n] {
			out[c][k] = col[i]
		}
	}
	return res, res.AppendColumns(out, n)
}

// refAlias is the display alias of a table source: the explicit alias or
// the table name, matching EXPLAIN's target column.
func refAlias(ref TableRef) string {
	if ref.Alias != "" {
		return ref.Alias
	}
	return ref.Name
}

// evalVectorized is the filter-evaluation annotation of EXPLAIN and
// EXPLAIN ANALYZE scan steps: every pushed filter runs on the
// selection-vector kernels.
const evalVectorized = "; eval=vectorized"

// scanSource builds the frame of one table source per its srcPlan: the
// table's column vectors, selected by an index lookup on the planned
// equality conjuncts when present, then narrowed by the remaining pushed
// filters on the selection-vector kernels.
func (r *run) scanSource(ref TableRef, sp srcPlan) (*frame, error) {
	t, ok := r.table(ref.Name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, ref.Name)
	}
	r.qs.phase(obs.PhaseScan)
	f := tableFrame(t)
	if len(sp.eqCols) > 0 {
		// The planner resolved and deduplicated the columns against this
		// schema epoch, so the index always builds.
		ix, err := t.IndexOn(sp.eqCols...)
		if err != nil {
			return nil, err
		}
		matched := ix.Lookup(sp.eqVals...)
		r.qs.addIndexScan()
		r.qs.addScanned(len(matched))
		r.qs.addPushdown(len(sp.eqCols) + len(sp.filters))
		if r.azTracks() {
			detail := indexScanDetail(sp)
			if len(sp.filters) > 0 {
				detail += "; filter: " + andString(sp.filters) + evalVectorized
			}
			r.azSet("indexscan", withStorage(detail))
		}
		f.sel = make([]uint32, len(matched)) // not nil: no row holds the key
		for i, ri := range matched {
			f.sel[i] = uint32(ri)
		}
	} else {
		r.qs.addScanned(t.NumRows())
		if r.azTracks() {
			detail := ""
			if len(sp.filters) > 0 {
				detail = "pushdown: " + andString(sp.filters) + evalVectorized
			}
			r.azSet("scan", withStorage(detail))
		}
		r.qs.addPushdown(len(sp.filters))
	}
	if len(sp.filters) > 0 {
		if err := r.narrow(f, sp.vecs); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// tableScope is a table's column layout under alias (its name when alias
// is empty), for resolution during planning (pushdown, EXPLAIN).
func tableScope(t *rel.Table, alias string) *scope {
	if alias == "" {
		alias = t.Name()
	}
	sc := &scope{names: t.Columns(), aliases: make([]string, t.NumCols())}
	for i := range sc.aliases {
		sc.aliases[i] = alias
	}
	return sc
}

// selectSources lists the scopes of a SELECT's table sources in execution
// order (FROM refs, then JOIN refs).
func (r *run) selectSources(s *SelectStmt) ([]*scope, error) {
	var out []*scope
	for _, ref := range s.From {
		t, ok := r.table(ref.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTable, ref.Name)
		}
		out = append(out, tableScope(t, ref.Alias))
	}
	for _, j := range s.Joins {
		t, ok := r.table(j.Ref.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTable, j.Ref.Name)
		}
		out = append(out, tableScope(t, j.Ref.Alias))
	}
	return out, nil
}

// joinPair is one cross-side column equality of an equi-join: the
// column's position in the left and in the right frame.
type joinPair struct{ li, ri int }

// hashJoinPairs reports whether the ON condition is a conjunction of
// cross-side column equalities, and if so returns the column index pairs —
// the equi-join eligibility test the planner runs.
func hashJoinPairs(f, g *scope, on Expr) ([]joinPair, bool) {
	var pairs []joinPair
	for _, c := range splitAnd(on) {
		b, ok := c.(Binary)
		if !ok || b.Op != "=" {
			return nil, false
		}
		lc, lok := b.L.(Col)
		rc, rok := b.R.(Col)
		if !lok || !rok {
			return nil, false
		}
		li, ri := f.resolve(lc.Qualifier, lc.Name), g.resolve(rc.Qualifier, rc.Name)
		if li < 0 || ri < 0 {
			// Maybe written right-to-left.
			li, ri = f.resolve(rc.Qualifier, rc.Name), g.resolve(lc.Qualifier, lc.Name)
		}
		if li < 0 || ri < 0 || inBoth(f, g, lc) || inBoth(f, g, rc) {
			// An ambiguous name fails when the nested-loop ON binds.
			return nil, false
		}
		pairs = append(pairs, joinPair{li: li, ri: ri})
	}
	return pairs, len(pairs) > 0
}

// inBoth reports whether c is an unqualified name that both f and g hold,
// which makes it ambiguous over their join.
func inBoth(f, g *scope, c Col) bool {
	return c.Qualifier == "" && slices.Contains(f.names, c.Name) && slices.Contains(g.names, c.Name)
}

// join combines f with g as jp plans it: an equi-join probes the right
// source's persistent index or a hash table over g's key codes, and any
// other ON runs as a nested loop on the kernels. Either way the output is
// left-major: f's rows in order, each followed by its matches in g's
// order, serially or in morsel batches.
func (r *run) join(f, g *frame, jp *joinPlan, jc JoinClause) (*frame, error) {
	r.qs.phase(obs.PhaseJoin)
	if r.azTracks() {
		r.azSet("", jp.strategy(refAlias(jc.Ref), jc.On))
	}
	if jp.pairs == nil {
		r.qs.addLoopJoin()
		return r.loopJoin(f, g, jp.on, jp.left)
	}
	r.qs.addHashJoin()
	if !jp.index {
		return r.hashJoin(f, g, jp.pairs)
	}
	t, ok := r.table(jc.Ref.Name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, jc.Ref.Name)
	}
	ix, err := t.IndexOn(jp.cols...)
	if err != nil {
		return nil, err
	}
	r.qs.addIndexJoin()
	return r.probe(f, g, jp.pairs, func(codes []uint32) []int { return ix.LookupCodes(codes...) })
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}
