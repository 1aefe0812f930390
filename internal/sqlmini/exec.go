package sqlmini

import (
	"fmt"
	"sort"
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
)

// frame is the working relation during SELECT execution: a list of columns,
// each tagged with the alias of the table it came from, and the joined rows
// as dictionary-code rows — the same []uint32 layout the columnar store
// holds, so scans, filters and joins never box values.
type frame struct {
	aliases []string
	names   []string
	rows    [][]uint32
	// base is the backing table when the frame is an untransformed whole-
	// table scan — the precondition for probing the table's persistent
	// indexes with frame row positions. Any filter, join or index-reduced
	// scan clears it.
	base *rel.Table
	// memo caches column resolution (including misses and ambiguities):
	// per-row expression evaluation resolves the same handful of names
	// over and over, and the linear scan over wide controller tables
	// dominates filter cost without it. Frames are single-goroutine.
	memo map[[2]string]int
}

func frameOf(t *rel.Table, alias string) *frame {
	f := schemaFrame(t, alias)
	f.base = t
	// Zero-copy scan: the frame shares the table's code-row storage. Frames
	// never mutate rows, and the statement holds the DB lock for its whole
	// execution, so the storage cannot move underneath it.
	f.rows = t.CodeRows()
	return f
}

// pristine reports whether the frame is still the whole backing table, so
// index row numbers and frame row positions coincide.
func (f *frame) pristine() bool {
	return f.base != nil && len(f.rows) == f.base.NumRows()
}

// resolve finds the column position for a (possibly qualified) name.
// It returns -1 when absent or ambiguous.
func (f *frame) resolve(q, name string) int {
	key := [2]string{q, name}
	if i, ok := f.memo[key]; ok {
		return i
	}
	i := f.resolveScan(q, name)
	if f.memo == nil {
		f.memo = make(map[[2]string]int, 8)
	}
	f.memo[key] = i
	return i
}

func (f *frame) resolveScan(q, name string) int {
	found := -1
	for i := range f.names {
		if f.names[i] != name {
			continue
		}
		if q != "" {
			if f.aliases[i] == q {
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

func (f *frame) cross(g *frame) *frame {
	out := &frame{
		aliases: append(append([]string(nil), f.aliases...), g.aliases...),
		names:   append(append([]string(nil), f.names...), g.names...),
	}
	out.rows = make([][]uint32, 0, len(f.rows)*len(g.rows))
	for _, a := range f.rows {
		for _, b := range g.rows {
			row := make([]uint32, 0, len(a)+len(b))
			row = append(row, a...)
			row = append(row, b...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// frameEnv evaluates expressions against one code row of a frame, decoding
// through the shared dictionary on lookup — only the interpreted fallback
// paths pay this; compiled predicates read the codes directly.
type frameEnv struct {
	f   *frame
	row []uint32
}

func (e frameEnv) Lookup(q, name string) (rel.Value, bool) {
	i := e.f.resolve(q, name)
	if i < 0 {
		return rel.Null(), false
	}
	return dict.Value(e.row[i]), true
}

// At implements posEnv for plan-bound column references. An out-of-range
// position (a plan from another schema epoch, which branchPlans prevents)
// reports absence so evaluation falls back to name resolution.
func (e frameEnv) At(i int) (rel.Value, bool) {
	if i < 0 || i >= len(e.row) {
		return rel.Null(), false
	}
	return dict.Value(e.row[i]), true
}

func (r *run) execSelect(s *SelectStmt) (*rel.Table, error) {
	plans, err := r.plansFor(s)
	if err != nil {
		return nil, err
	}
	out, err := r.execSelectOne(s, r.planAt(plans, 0, s))
	if err != nil {
		return nil, err
	}
	bi := 1
	for u, all := s.Union, s.UnionAll; u != nil; u, all = u.Union, u.UnionAll {
		// Each branch's own Union chain is cleared before execution to
		// avoid double-processing; we walk the chain here instead.
		branch := *u
		branch.Union = nil
		bt, err := r.execSelectOne(&branch, r.planAt(plans, bi, &branch))
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
	return out, nil
}

// planAt returns the i-th cached branch plan; a length mismatch (which
// cannot happen for plans built from the same UNION chain) falls back to
// planning the branch fresh so the WHERE clause is never lost.
func (r *run) planAt(plans []*branchPlan, i int, branch *SelectStmt) *branchPlan {
	if i < len(plans) && plans[i] != nil {
		return plans[i]
	}
	bp, err := r.planBranch(branch)
	if err != nil {
		return &branchPlan{residue: branch.Where}
	}
	return bp
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
	// equality conjunct, with remaining pushed conjuncts filtered in place.
	var f *frame
	if len(s.From) == 0 {
		f = &frame{rows: [][]uint32{{}}} // one empty row for FROM-less SELECT
	}
	si := 0
	for _, ref := range s.From {
		r.azBegin("scan", refAlias(ref))
		g, err := r.scanSource(ref, plan.src(si))
		if err != nil {
			return nil, err
		}
		r.azEnd(len(g.rows))
		si++
		if f == nil {
			f = g
		} else {
			r.azBegin("cross", refAlias(ref))
			r.azSet("", "cross product")
			f = f.cross(g)
			r.azEnd(len(f.rows))
		}
	}
	for _, j := range s.Joins {
		r.azBegin("scan", refAlias(j.Ref))
		g, err := r.scanSource(j.Ref, plan.src(si))
		if err != nil {
			return nil, err
		}
		r.azEnd(len(g.rows))
		si++
		r.azBegin("join", refAlias(j.Ref))
		joined, err := r.join(f, g, j.On)
		if err != nil {
			return nil, err
		}
		r.azEnd(len(joined.rows))
		f = joined
	}
	// WHERE (residue after pushdown).
	if plan != nil && plan.residue != nil {
		conj, progs := plan.residueConjuncts()
		r.azBegin("filter", "")
		if r.azTracks() {
			r.azSet("", andString(conj))
		}
		filtered, err := r.filterFrame(f, conj, progs)
		if err != nil {
			return nil, err
		}
		r.azEnd(len(filtered.rows))
		f = filtered
	}
	// GROUP BY aggregation; aggregates without GROUP BY treat the whole
	// input as one group.
	if len(s.GroupBy) > 0 || (hasAggregates(s.Items) && !isCountStar(s.Items)) {
		if len(s.GroupBy) > 0 {
			r.azBegin("group", "")
			if r.azTracks() {
				r.azSet("", fmt.Sprintf("%d key(s)", len(s.GroupBy)))
			}
		} else {
			r.azBegin("aggregate", "")
		}
		t, err := r.execGrouped(s, f)
		if err != nil {
			return nil, err
		}
		r.azEnd(t.NumRows())
		return t, nil
	}
	// COUNT(*) aggregate.
	if isCountStar(s.Items) {
		r.azBegin("aggregate", "")
		name := "count"
		if s.Items[0].Alias != "" {
			name = s.Items[0].Alias
		}
		t := rel.MustNewTable("result", name)
		t.MustInsert(rel.I(int64(len(f.rows))))
		r.azEnd(1)
		return t, nil
	}
	// Projection list. Direct column references copy their code straight
	// off the row; anything else evaluates through one reused Env and the
	// result is interned. Output codes are carved from a single arena
	// allocation covering every row.
	r.qs.phase(obs.PhaseProject)
	r.azBegin("project", "")
	cols, exprs, err := projection(s.Items, f)
	if err != nil {
		return nil, err
	}
	width := len(exprs)
	colAt := make([]int, width)
	direct := true
	for i, e := range exprs {
		colAt[i] = -1
		if c, ok := e.(Col); ok {
			colAt[i] = f.resolve(c.Qualifier, c.Name)
		}
		if colAt[i] < 0 {
			direct = false
		}
	}
	// Fused projection: when every output is a direct column reference and
	// no reordering or dedup follows, skip the per-row staging entirely —
	// gather each output column from the frame rows in one pass and bulk-
	// append the column vectors to the result. Same codes in the same
	// order as the staged path, so vectorized, scalar, parallel and serial
	// executions all stay byte-identical.
	if direct && !s.Distinct && len(s.OrderBy) == 0 {
		rows := f.rows
		r.azEnd(len(rows))
		if s.Limit >= 0 {
			r.azBegin("limit", "")
			if r.azTracks() {
				r.azSet("", fmt.Sprintf("LIMIT %d", s.Limit))
			}
			if len(rows) > s.Limit {
				rows = rows[:s.Limit]
			}
			r.azEnd(len(rows))
		}
		out, err := rel.NewTable("result", cols...)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return out, nil
		}
		n := len(rows)
		flat := make([]uint32, n*width)
		gathered := make([][]uint32, width)
		for k, src := range colAt {
			col := flat[k*n : (k+1)*n]
			for i, row := range rows {
				col[i] = row[src]
			}
			gathered[k] = col
		}
		if err := out.AppendColumns(gathered, n); err != nil {
			return nil, err
		}
		return out, nil
	}
	type outRow struct {
		vals []uint32
		keys []rel.Value
	}
	rows := make([]outRow, 0, len(f.rows))
	arena := make([]uint32, len(f.rows)*width)
	var keyArena []rel.Value
	if len(s.OrderBy) > 0 {
		keyArena = make([]rel.Value, len(f.rows)*len(s.OrderBy))
	}
	env := &frameEnv{f: f}
	for ri, row := range f.rows {
		env.row = row
		vals := arena[ri*width : (ri+1)*width : (ri+1)*width]
		for i, e := range exprs {
			if j := colAt[i]; j >= 0 {
				vals[i] = row[j]
				continue
			}
			v, err := r.ev.Eval(e, env)
			if err != nil {
				return nil, err
			}
			vals[i] = dict.Code(v)
		}
		var keys []rel.Value
		if nk := len(s.OrderBy); nk > 0 {
			keys = keyArena[ri*nk : (ri+1)*nk : (ri+1)*nk]
			oenv := orderEnv{frame: frameEnv{f: f, row: row}, cols: cols, vals: vals}
			for i, k := range s.OrderBy {
				v, err := r.ev.Eval(k.Expr, oenv)
				if err != nil {
					return nil, err
				}
				keys[i] = v
			}
		}
		rows = append(rows, outRow{vals: vals, keys: keys})
	}
	r.azEnd(len(rows))
	if s.Distinct {
		r.azBegin("distinct", "")
		seen := make(map[string]struct{}, len(rows))
		kept := rows[:0]
		for _, row := range rows {
			k := rowKeyOf(row.vals)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			kept = append(kept, row)
		}
		rows = kept
		r.azEnd(len(rows))
	}
	if len(s.OrderBy) > 0 {
		r.azBegin("sort", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("%d key(s)", len(s.OrderBy)))
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for i, k := range s.OrderBy {
				c := rows[a].keys[i].Compare(rows[b].keys[i])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		r.azEnd(len(rows))
	}
	if s.Limit >= 0 {
		r.azBegin("limit", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("LIMIT %d", s.Limit))
		}
		if len(rows) > s.Limit {
			rows = rows[:s.Limit]
		}
		r.azEnd(len(rows))
	}
	out, err := rel.NewTable("result", cols...)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := out.AppendCodeRow(row.vals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refAlias is the display alias of a table source: the explicit alias or
// the table name, matching EXPLAIN's target column.
func refAlias(ref TableRef) string {
	if ref.Alias != "" {
		return ref.Alias
	}
	return ref.Name
}

// scanSource materializes one table source per its srcPlan: an index
// lookup on the planned equality conjuncts when present, a whole-table
// scan otherwise, followed by the remaining pushed filters on the
// selection-vector kernels.
func (r *run) scanSource(ref TableRef, sp srcPlan) (*frame, error) {
	t, ok := r.table(ref.Name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, ref.Name)
	}
	r.qs.phase(obs.PhaseScan)
	if len(sp.eqCols) > 0 {
		ix, err := t.IndexOn(sp.eqCols...)
		if err == nil {
			matched := ix.Lookup(sp.eqVals...)
			r.qs.addIndexScan()
			r.qs.addScanned(len(matched))
			r.qs.addPushdown(len(sp.eqCols) + len(sp.filters))
			vec := len(sp.filters) > 0 && vecUsable(t, sp)
			if r.azTracks() {
				detail := indexScanDetail(sp)
				if len(sp.filters) > 0 {
					detail += "; filter: " + andString(sp.filters) + evalDetail(vec)
				}
				r.azSet("indexscan", withStorage(detail))
			}
			if vec {
				if matched == nil {
					// No row holds the key. A nil domain would tell
					// vecScan to scan the whole table.
					matched = []int{}
				}
				return r.vecScan(t, ref.Alias, matched, sp.vecs)
			}
			f := schemaFrame(t, ref.Alias)
			crows := t.CodeRows()
			f.rows = make([][]uint32, len(matched))
			for i, ri := range matched {
				f.rows[i] = crows[ri]
			}
			if len(sp.filters) > 0 {
				return r.filterFrame(f, sp.filters, nil)
			}
			return f, nil
		}
		// The index could not be built (it cannot for planner-produced
		// column lists, which are resolved and deduplicated): apply the
		// equality conjuncts as ordinary filters instead. The compiled
		// slots no longer line up with the extended conjunct list, so this
		// fallback is interpreted.
		sp.filters = append(eqExprs(sp), sp.filters...)
		sp.vecs = nil
	}
	r.qs.addScanned(t.NumRows())
	vec := len(sp.filters) > 0 && vecUsable(t, sp)
	if r.azTracks() {
		detail := ""
		if len(sp.filters) > 0 {
			detail = "pushdown: " + andString(sp.filters) + evalDetail(vec)
		}
		r.azSet("scan", withStorage(detail))
	}
	if vec {
		r.qs.addPushdown(len(sp.filters))
		return r.vecScan(t, ref.Alias, nil, sp.vecs)
	}
	f := frameOf(t, ref.Alias)
	if len(sp.filters) > 0 {
		// A conjunct failed to compile: interpret the filter, which
		// reports the failure as the unplanned path would.
		r.qs.addPushdown(len(sp.filters))
		return r.filterFrame(f, sp.filters, nil)
	}
	return f, nil
}

// evalDetail renders the filter-evaluation mode annotation shared by
// EXPLAIN and EXPLAIN ANALYZE scan steps: vectorized, or scalar when a
// conjunct did not compile and the filter is interpreted row at a time.
func evalDetail(vec bool) string {
	if vec {
		return "; eval=vectorized"
	}
	return "; eval=scalar"
}

// execGrouped evaluates a GROUP BY query: rows are bucketed by the group
// expressions; each bucket yields one output row, with COUNT(*) bound to
// the bucket size for the select list and the HAVING filter.
func (r *run) execGrouped(s *SelectStmt, f *frame) (*rel.Table, error) {
	r.qs.phase(obs.PhaseAggregate)
	type group struct {
		rows [][]uint32
	}
	var order []string
	groups := map[string]*group{}
	// Group keys: 4 bytes per grouping expression — direct column
	// references append their code straight off the row, everything else
	// evaluates through one reused Env and interns its result. Codes are
	// injective over values, so code-byte keys bucket exactly as value
	// keys did; the string allocation happens only the first time a group
	// is seen (the map probe with string(buf) does not allocate).
	gidx := make([]int, len(s.GroupBy))
	for i, ge := range s.GroupBy {
		gidx[i] = -1
		if c, ok := ge.(Col); ok {
			gidx[i] = f.resolve(c.Qualifier, c.Name)
		}
	}
	env := &frameEnv{f: f}
	var buf []byte
	for _, row := range f.rows {
		env.row = row
		buf = buf[:0]
		for i, ge := range s.GroupBy {
			var c uint32
			if j := gidx[i]; j >= 0 {
				c = row[j]
			} else {
				v, err := r.ev.Eval(ge, env)
				if err != nil {
					return nil, err
				}
				c = dict.Code(v)
			}
			buf = rel.AppendCodeKey(buf, c)
		}
		g, ok := groups[string(buf)]
		if !ok {
			key := string(buf)
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.rows = append(g.rows, row)
	}
	cols, exprs, err := projection(s.Items, f)
	if err != nil {
		return nil, err
	}
	out, err := rel.NewTable("result", cols...)
	if err != nil {
		return nil, err
	}
	for _, key := range order {
		g := groups[key]
		genv := frameEnv{f: f, row: g.rows[0]}
		if s.Having != nil {
			h, err := r.rewriteAggs(s.Having, f, g.rows)
			if err != nil {
				return nil, err
			}
			keep, err := r.ev.True(h, &genv)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		vals := make([]rel.Value, len(exprs))
		for i, e := range exprs {
			re, err := r.rewriteAggs(e, f, g.rows)
			if err != nil {
				return nil, err
			}
			v, err := r.ev.Eval(re, &genv)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := out.InsertRow(vals); err != nil {
			return nil, err
		}
	}
	// Close the caller's group/aggregate op at the grouped row count, so
	// the ORDER BY and LIMIT below report as their own plan steps (the
	// caller's azEnd is a no-op once the op is closed here).
	r.azEnd(out.NumRows())
	// ORDER BY over the output columns (aggregates are already
	// materialized per row).
	if len(s.OrderBy) > 0 {
		r.azBegin("sort", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("%d key(s)", len(s.OrderBy)))
		}
		type keyed struct {
			row  []rel.Value
			keys []rel.Value
		}
		rows := make([]keyed, out.NumRows())
		for i := 0; i < out.NumRows(); i++ {
			k := keyed{row: out.RawRow(i), keys: make([]rel.Value, len(s.OrderBy))}
			env := groupOutEnv{cols: cols, vals: out.RawRow(i)}
			for j, key := range s.OrderBy {
				v, err := r.ev.Eval(key.Expr, env)
				if err != nil {
					return nil, err
				}
				k.keys[j] = v
			}
			rows[i] = k
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for j, key := range s.OrderBy {
				c := rows[a].keys[j].Compare(rows[b].keys[j])
				if key.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted, err := rel.NewTable("result", cols...)
		if err != nil {
			return nil, err
		}
		for _, k := range rows {
			if err := sorted.InsertRow(k.row); err != nil {
				return nil, err
			}
		}
		out = sorted
		r.azEnd(out.NumRows())
	}
	if s.Limit >= 0 {
		r.azBegin("limit", "")
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("LIMIT %d", s.Limit))
		}
		if out.NumRows() > s.Limit {
			limited, err := rel.NewTable("result", cols...)
			if err != nil {
				return nil, err
			}
			for i := 0; i < s.Limit; i++ {
				if err := limited.InsertRow(out.RawRow(i)); err != nil {
					return nil, err
				}
			}
			out = limited
		}
		r.azEnd(out.NumRows())
	}
	return out, nil
}

// containsAgg reports whether e contains an aggregate call, so rewriteAggs
// can return aggregate-free subtrees unchanged instead of copying them for
// every group.
func containsAgg(e Expr) bool {
	switch x := e.(type) {
	case Call:
		if x.Name == "count_star" || x.Name == "agg_min" || x.Name == "agg_max" {
			return true
		}
		for _, a := range x.Args {
			if containsAgg(a) {
				return true
			}
		}
	case Unary:
		return containsAgg(x.X)
	case Binary:
		return containsAgg(x.L) || containsAgg(x.R)
	case InList:
		if containsAgg(x.X) {
			return true
		}
		for _, s := range x.Set {
			if containsAgg(s) {
				return true
			}
		}
	case IsNull:
		return containsAgg(x.X)
	case Between:
		return containsAgg(x.X) || containsAgg(x.Lo) || containsAgg(x.Hi)
	case Ternary:
		return containsAgg(x.Cond) || containsAgg(x.Then) || containsAgg(x.Else)
	case Case:
		for _, w := range x.Whens {
			if containsAgg(w.Cond) || containsAgg(w.Val) {
				return true
			}
		}
		if x.Else != nil {
			return containsAgg(x.Else)
		}
	}
	return false
}

// rewriteAggs replaces aggregate calls (count_star, agg_min, agg_max) in
// an expression with literals computed over the group's rows, so the
// remaining expression evaluates against the group's representative row.
// Aggregate-free expressions are returned as-is: rewriting them would
// produce an identical copy per group.
func (r *run) rewriteAggs(e Expr, f *frame, rows [][]uint32) (Expr, error) {
	if !containsAgg(e) {
		return e, nil
	}
	switch x := e.(type) {
	case Call:
		switch x.Name {
		case "count_star":
			return Lit{Val: rel.I(int64(len(rows)))}, nil
		case "agg_min", "agg_max":
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("%w: %s wants 1 argument", ErrType, x.Name)
			}
			best := rel.Null()
			for _, row := range rows {
				v, err := r.ev.Eval(x.Args[0], frameEnv{f: f, row: row})
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					continue // aggregates skip NULLs
				}
				if best.IsNull() ||
					(x.Name == "agg_min" && v.Compare(best) < 0) ||
					(x.Name == "agg_max" && v.Compare(best) > 0) {
					best = v
				}
			}
			return Lit{Val: best}, nil
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := r.rewriteAggs(a, f, rows)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return Call{Name: x.Name, Args: args}, nil
	case Unary:
		rx, err := r.rewriteAggs(x.X, f, rows)
		if err != nil {
			return nil, err
		}
		return Unary{Op: x.Op, X: rx}, nil
	case Binary:
		l, err := r.rewriteAggs(x.L, f, rows)
		if err != nil {
			return nil, err
		}
		rr, err := r.rewriteAggs(x.R, f, rows)
		if err != nil {
			return nil, err
		}
		return Binary{Op: x.Op, L: l, R: rr}, nil
	case InList:
		rx, err := r.rewriteAggs(x.X, f, rows)
		if err != nil {
			return nil, err
		}
		set := make([]Expr, len(x.Set))
		for i, sx := range x.Set {
			rs, err := r.rewriteAggs(sx, f, rows)
			if err != nil {
				return nil, err
			}
			set[i] = rs
		}
		return InList{X: rx, Set: set, Negate: x.Negate}, nil
	case IsNull:
		rx, err := r.rewriteAggs(x.X, f, rows)
		if err != nil {
			return nil, err
		}
		return IsNull{X: rx, Negate: x.Negate}, nil
	case Between:
		rx, err := r.rewriteAggs(x.X, f, rows)
		if err != nil {
			return nil, err
		}
		lo, err := r.rewriteAggs(x.Lo, f, rows)
		if err != nil {
			return nil, err
		}
		hi, err := r.rewriteAggs(x.Hi, f, rows)
		if err != nil {
			return nil, err
		}
		return Between{X: rx, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	case Ternary:
		c, err := r.rewriteAggs(x.Cond, f, rows)
		if err != nil {
			return nil, err
		}
		tn, err := r.rewriteAggs(x.Then, f, rows)
		if err != nil {
			return nil, err
		}
		el, err := r.rewriteAggs(x.Else, f, rows)
		if err != nil {
			return nil, err
		}
		return Ternary{Cond: c, Then: tn, Else: el}, nil
	case Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			c, err := r.rewriteAggs(w.Cond, f, rows)
			if err != nil {
				return nil, err
			}
			v, err := r.rewriteAggs(w.Val, f, rows)
			if err != nil {
				return nil, err
			}
			whens[i] = When{Cond: c, Val: v}
		}
		var els Expr
		if x.Else != nil {
			var err error
			els, err = r.rewriteAggs(x.Else, f, rows)
			if err != nil {
				return nil, err
			}
		}
		return Case{Whens: whens, Else: els}, nil
	default:
		return e, nil
	}
}

// groupOutEnv resolves ORDER BY keys of a grouped query against the output
// columns.
type groupOutEnv struct {
	cols []string
	vals []rel.Value
}

// Lookup implements Env over the grouped output row.
func (e groupOutEnv) Lookup(q, name string) (rel.Value, bool) {
	if q != "" {
		return rel.Null(), false
	}
	for i, c := range e.cols {
		if c == name {
			return e.vals[i], true
		}
	}
	return rel.Null(), false
}

// orderEnv lets ORDER BY reference both source columns and output aliases
// (the latter held as projected codes, decoded on lookup).
type orderEnv struct {
	frame frameEnv
	cols  []string
	vals  []uint32
}

func (e orderEnv) Lookup(q, name string) (rel.Value, bool) {
	if v, ok := e.frame.Lookup(q, name); ok {
		return v, true
	}
	if q == "" {
		for i, c := range e.cols {
			if c == name {
				return dict.Value(e.vals[i]), true
			}
		}
	}
	return rel.Null(), false
}

// hasAggregates reports whether any select item contains an aggregate call.
func hasAggregates(items []SelectItem) bool {
	var walk func(e Expr) bool
	walk = func(e Expr) bool {
		switch x := e.(type) {
		case Call:
			if x.Name == "count_star" || x.Name == "agg_min" || x.Name == "agg_max" {
				return true
			}
			for _, a := range x.Args {
				if walk(a) {
					return true
				}
			}
		case Unary:
			return walk(x.X)
		case Binary:
			return walk(x.L) || walk(x.R)
		case Ternary:
			return walk(x.Cond) || walk(x.Then) || walk(x.Else)
		}
		return false
	}
	for _, it := range items {
		if it.Expr != nil && walk(it.Expr) {
			return true
		}
	}
	return false
}

func isCountStar(items []SelectItem) bool {
	if len(items) != 1 || items[0].Star || items[0].Expr == nil {
		return false
	}
	c, ok := items[0].Expr.(Call)
	return ok && c.Name == "count_star"
}

// projection expands the select list into output column names and the
// expressions producing them.
func projection(items []SelectItem, f *frame) ([]string, []Expr, error) {
	var cols []string
	var exprs []Expr
	for _, it := range items {
		if it.Star {
			for i := range f.names {
				name := f.names[i]
				if f.resolve("", name) < 0 {
					// Ambiguous across tables; qualify.
					name = f.aliases[i] + "." + f.names[i]
				}
				cols = append(cols, name)
				exprs = append(exprs, Col{Qualifier: f.aliases[i], Name: f.names[i]})
			}
			continue
		}
		name := it.Alias
		if name == "" {
			if c, ok := it.Expr.(Col); ok {
				name = c.Name
			} else {
				name = it.Expr.String()
			}
		}
		cols = append(cols, name)
		exprs = append(exprs, it.Expr)
	}
	// Disambiguate duplicate output names (SELECT a.m, b.m ...).
	seen := make(map[string]int, len(cols))
	for i, c := range cols {
		n := seen[c]
		seen[c] = n + 1
		if n > 0 {
			cols[i] = fmt.Sprintf("%s_%d", c, n)
		}
	}
	return cols, exprs, nil
}

// filterFrame keeps the rows satisfying every conjunct: a post-join
// residue, or a scan filter with a conjunct that did not compile. progs
// carries the compiled form of each conjunct (a nil slice or nil slot
// falls back to the tree-walking interpreter, preserving its exact error
// reporting).
// When every conjunct compiled and the input spans at least two morsels,
// the scan runs on the worker pool; kept rows merge in input order, so
// the parallel result is byte-identical to the serial scan's.
func (r *run) filterFrame(f *frame, conjuncts []Expr, progs []CodePred) (*frame, error) {
	r.qs.phase(obs.PhaseFilter)
	compiled := len(progs) == len(conjuncts)
	if compiled {
		for _, p := range progs {
			if p == nil {
				compiled = false
				break
			}
		}
	}
	if compiled {
		if kept, ran, err := r.parallelFilter(f.rows, progs); ran {
			if err != nil {
				return nil, err
			}
			return &frame{aliases: f.aliases, names: f.names, rows: kept, memo: f.memo}, nil
		}
		kept := f.rows[:0:0]
		for _, row := range f.rows {
			keep, err := evalPreds(progs, row)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, row)
			}
		}
		return &frame{aliases: f.aliases, names: f.names, rows: kept, memo: f.memo}, nil
	}
	kept := f.rows[:0:0]
	env := &frameEnv{f: f}
	for _, row := range f.rows {
		env.row = row
		ok, err := r.allTrue(env, conjuncts, progs)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	// Same schema, so the resolution memo carries over.
	return &frame{aliases: f.aliases, names: f.names, rows: kept, memo: f.memo}, nil
}

// allTrue reports whether env's row satisfies every conjunct, in order,
// stopping at the first that does not hold. A conjunct with a compiled
// slot in progs runs it; the others are interpreted.
func (r *run) allTrue(env *frameEnv, conjuncts []Expr, progs []CodePred) (bool, error) {
	for i, c := range conjuncts {
		var t bool
		var err error
		if i < len(progs) && progs[i] != nil {
			t, err = progs[i](env.row)
		} else {
			t, err = r.ev.True(c, env)
		}
		if err != nil || !t {
			return false, err
		}
	}
	return true, nil
}

// schemaFrame builds a rowless frame carrying only a table's column
// schema, for resolution during planning (pushdown, EXPLAIN).
func schemaFrame(t *rel.Table, alias string) *frame {
	if alias == "" {
		alias = t.Name()
	}
	f := &frame{}
	for _, c := range t.Columns() {
		f.aliases = append(f.aliases, alias)
		f.names = append(f.names, c)
	}
	return f
}

// colRefs collects every column reference in an expression.
func colRefs(e Expr, out *[]Col) {
	switch x := e.(type) {
	case Col:
		*out = append(*out, x)
	case boundCol:
		*out = append(*out, x.Col)
	case Unary:
		colRefs(x.X, out)
	case Binary:
		colRefs(x.L, out)
		colRefs(x.R, out)
	case InList:
		colRefs(x.X, out)
		for _, s := range x.Set {
			colRefs(s, out)
		}
	case IsNull:
		colRefs(x.X, out)
	case Between:
		colRefs(x.X, out)
		colRefs(x.Lo, out)
		colRefs(x.Hi, out)
	case Ternary:
		colRefs(x.Cond, out)
		colRefs(x.Then, out)
		colRefs(x.Else, out)
	case Case:
		for _, w := range x.Whens {
			colRefs(w.Cond, out)
			colRefs(w.Val, out)
		}
		if x.Else != nil {
			colRefs(x.Else, out)
		}
	case Call:
		for _, a := range x.Args {
			colRefs(a, out)
		}
	}
}

// selectSources lists the schema frames of a SELECT's table sources in
// execution order (FROM refs, then JOIN refs).
func (r *run) selectSources(s *SelectStmt) ([]*frame, error) {
	var out []*frame
	for _, ref := range s.From {
		t, ok := r.table(ref.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTable, ref.Name)
		}
		out = append(out, schemaFrame(t, ref.Alias))
	}
	for _, j := range s.Joins {
		t, ok := r.table(j.Ref.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoTable, j.Ref.Name)
		}
		out = append(out, schemaFrame(t, j.Ref.Alias))
	}
	return out, nil
}

// join combines f with g under the ON condition. When the condition is a
// conjunction of cross-side column equalities a hash join is used; otherwise
// a filtered nested-loop cross product.
type joinPair struct{ li, ri int }

// hashJoinPairs reports whether the ON condition is a conjunction of
// cross-side column equalities, and if so returns the column index pairs —
// the hash-join eligibility test, shared with EXPLAIN.
func hashJoinPairs(f, g *frame, on Expr) ([]joinPair, bool) {
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
		if li < 0 || ri < 0 {
			return nil, false
		}
		pairs = append(pairs, joinPair{li: li, ri: ri})
	}
	return pairs, len(pairs) > 0
}

// join output is always f-major: left rows in scan order, each followed by
// its matches. Every strategy below — serial or parallel — preserves that
// order, so results are deterministic regardless of worker count.
func (r *run) join(f, g *frame, on Expr) (*frame, error) {
	r.qs.phase(obs.PhaseJoin)
	pairs, hashable := hashJoinPairs(f, g, on)
	out := &frame{
		aliases: append(append([]string(nil), f.aliases...), g.aliases...),
		names:   append(append([]string(nil), f.names...), g.names...),
	}
	if !hashable {
		// Nested loop with ON filter; candidate rows carve from an arena
		// and rejected candidates return their space.
		r.qs.addLoopJoin()
		if r.azTracks() {
			r.azSet("", "nested-loop: "+on.String())
		}
		var ar codeArena
		env := &frameEnv{f: out}
		for _, a := range f.rows {
			for _, b := range g.rows {
				row := ar.joinRow(a, b)
				env.row = row
				ok, err := r.ev.True(on, env)
				if err != nil {
					return nil, err
				}
				if ok {
					out.rows = append(out.rows, row)
				} else {
					ar.undo(len(row))
				}
			}
		}
		r.azArena(ar.grown)
		return out, nil
	}
	r.qs.addHashJoin()
	// Index nested-loop: when one side is a pristine base-table scan, its
	// persistent index replaces the build phase entirely. Probe the side
	// with fewer rows. IndexOn only fails for duplicated join columns
	// (ON f.a = g.m AND f.b = g.m); the ad-hoc hash below covers that.
	if g.pristine() && (!f.pristine() || len(f.rows) <= len(g.rows)) {
		cols := make([]string, len(pairs))
		for k, p := range pairs {
			cols[k] = g.names[p.ri]
		}
		if ix, err := g.base.IndexOn(cols...); err == nil {
			r.qs.addIndexJoin()
			if r.azTracks() {
				r.azSet("", fmt.Sprintf("index nested-loop via %s(%s)",
					g.aliases[pairs[0].ri], joinCols(cols)))
			}
			var ar codeArena
			codes := make([]uint32, len(pairs))
			for _, a := range f.rows {
				ok := true
				for k, p := range pairs {
					if a[p.li] == rel.NullCode {
						ok = false // NULL keys never match
						break
					}
					codes[k] = a[p.li]
				}
				if !ok {
					continue
				}
				for _, j := range ix.LookupCodes(codes...) {
					out.rows = append(out.rows, ar.joinRow(a, g.rows[j]))
				}
			}
			r.azArena(ar.grown)
			return out, nil
		}
	}
	if f.pristine() {
		cols := make([]string, len(pairs))
		for k, p := range pairs {
			cols[k] = f.names[p.li]
		}
		if ix, err := f.base.IndexOn(cols...); err == nil {
			r.qs.addIndexJoin()
			if r.azTracks() {
				r.azSet("", fmt.Sprintf("index nested-loop via %s(%s)",
					f.aliases[pairs[0].li], joinCols(cols)))
			}
			// Probe with g's rows, staging flat (build, probe) hit pairs;
			// groupHits buckets them per f row so the output stays f-major.
			var hits []matchHit
			codes := make([]uint32, len(pairs))
			for j, b := range g.rows {
				ok := true
				for k, p := range pairs {
					if b[p.ri] == rel.NullCode {
						ok = false
						break
					}
					codes[k] = b[p.ri]
				}
				if !ok {
					continue
				}
				for _, i := range ix.LookupCodes(codes...) {
					hits = append(hits, matchHit{i: int32(i), j: int32(j)})
				}
			}
			emitMatchSet(out, f, g, groupHits(hits, len(f.rows)))
			r.azEmitted(out)
			return out, nil
		}
	}
	// Ad-hoc hash join: partitioned build over the smaller input, morsel-
	// parallel probe over the larger (see exec_parallel.go; both phases
	// degrade to serial loops below the parallel threshold).
	if len(f.rows) <= len(g.rows) {
		if r.azTracks() {
			r.azSet("", fmt.Sprintf("hash, %d key(s), build=left", len(pairs)))
		}
		var t0, t1 time.Time
		if r.azTracks() {
			t0 = time.Now()
		}
		ht := r.buildHashTable(f.rows, pairs, true)
		if r.azTracks() {
			t1 = time.Now()
		}
		hits := r.probeHits(g.rows, pairs, ht)
		emitMatchSet(out, f, g, groupHits(hits, len(f.rows)))
		if r.azTracks() {
			r.azBuildProbe(t1.Sub(t0), time.Since(t1))
			r.azEmitted(out)
		}
		return out, nil
	}
	if r.azTracks() {
		r.azSet("", fmt.Sprintf("hash, %d key(s), build=right", len(pairs)))
	}
	var t0, t1 time.Time
	if r.azTracks() {
		t0 = time.Now()
	}
	ht := r.buildHashTable(g.rows, pairs, false)
	if r.azTracks() {
		t1 = time.Now()
	}
	r.probeEmit(out, f, g, pairs, ht)
	if r.azTracks() {
		r.azBuildProbe(t1.Sub(t0), time.Since(t1))
	}
	return out, nil
}

// joinCols renders a join-column list for analyze details.
func joinCols(cols []string) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}

// azEmitted charges the open analyze op with the bytes of the joined rows
// emitMatches materialized (4 bytes per code).
func (r *run) azEmitted(out *frame) {
	if r.az == nil || r.az.cur < 0 {
		return
	}
	r.azArena(int64(len(out.rows)) * int64(len(out.names)) * 4)
}

// matchHit is one (build row, probe row) join match. int32 halves the
// staging footprint; row counts here are bounded far below 2^31 by the
// protocol tables.
type matchHit struct{ i, j int32 }

// matchSet is the grouped form of a hit list: for build row i, its probe
// matches are idx[offs[i]:offs[i+1]], in probe order.
type matchSet struct {
	offs []int32
	idx  []int32
}

// groupHits buckets probe-order hits per build row with a counting sort —
// two passes and three exact allocations, replacing the per-build-row
// append churn that used to dominate join allocation. The sort is stable,
// so within each build row the probe order (and thus the emitted row
// order) is exactly the serial nested fill's.
func groupHits(hits []matchHit, nBuild int) matchSet {
	offs := make([]int32, nBuild+1)
	for _, h := range hits {
		offs[h.i+1]++
	}
	for i := 1; i <= nBuild; i++ {
		offs[i] += offs[i-1]
	}
	idx := make([]int32, len(hits))
	cur := make([]int32, nBuild)
	copy(cur, offs[:nBuild])
	for _, h := range hits {
		idx[cur[h.i]] = h.j
		cur[h.i]++
	}
	return matchSet{offs: offs, idx: idx}
}

// emitMatchSet appends f-major joined rows — for each f row in order, its
// matching g rows — carved from one exactly-sized allocation.
func emitMatchSet(out *frame, f, g *frame, ms matchSet) {
	total := len(ms.idx)
	if total == 0 {
		return
	}
	width := len(f.names) + len(g.names)
	flat := make([]uint32, total*width)
	out.rows = make([][]uint32, 0, total)
	k := 0
	for i, a := range f.rows {
		for _, j := range ms.idx[ms.offs[i]:ms.offs[i+1]] {
			row := flat[k : k+width : k+width]
			k += width
			copy(row, a)
			copy(row[len(a):], g.rows[j])
			out.rows = append(out.rows, row)
		}
	}
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// rowKeyOf encodes a code row as a fixed-width injective key: 4 bytes per
// column, comparable across frames because every code comes from the one
// shared dictionary.
func rowKeyOf(vals []uint32) string {
	buf := make([]byte, 0, len(vals)*4)
	for _, c := range vals {
		buf = rel.AppendCodeKey(buf, c)
	}
	return string(buf)
}
