package sqlmini

import (
	"fmt"
	"slices"
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
// It returns -1 when absent or ambiguous. Only the planner resolves
// names; execution reads bound positions.
func (f *frame) resolve(q, name string) int {
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
	rows := make([]outRow, out.NumRows())
	for i, row := range out.CodeRows() {
		keys, err := orderKeys(plans[0].order, row)
		if err != nil {
			return nil, err
		}
		rows[i] = outRow{vals: row, keys: keys}
	}
	return r.finish(&SelectStmt{OrderBy: s.OrderBy, Limit: s.Limit}, out.Columns(), rows)
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
		g, err := r.scanSource(ref, plan.srcs[si])
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
	for j, jc := range s.Joins {
		r.azBegin("scan", refAlias(jc.Ref))
		g, err := r.scanSource(jc.Ref, plan.srcs[si])
		if err != nil {
			return nil, err
		}
		r.azEnd(len(g.rows))
		si++
		r.azBegin("join", refAlias(jc.Ref))
		joined, err := r.join(f, g, plan.joins[j], jc.On)
		if err != nil {
			return nil, err
		}
		r.azEnd(len(joined.rows))
		f = joined
	}
	// WHERE (residue after pushdown).
	if len(plan.residue) > 0 {
		r.azBegin("filter", "")
		if r.azTracks() {
			r.azSet("", andString(plan.residue))
		}
		filtered, err := r.filterFrame(f, plan.resProgs)
		if err != nil {
			return nil, err
		}
		r.azEnd(len(filtered.rows))
		f = filtered
	}
	op := &plan.out
	var rows []outRow
	if op.grouped {
		if len(s.GroupBy) > 0 {
			r.azBegin("group", "")
			if r.azTracks() {
				r.azSet("", fmt.Sprintf("%d key(s)", len(s.GroupBy)))
			}
		} else {
			r.azBegin("aggregate", "")
		}
		var err error
		if rows, err = r.group(f, op); err != nil {
			return nil, err
		}
		r.azEnd(len(rows))
	} else {
		r.qs.phase(obs.PhaseProject)
		r.azBegin("project", "")
		if t, ok, err := r.fusedProject(s, f, op); ok || err != nil {
			return t, err
		}
		var err error
		if rows, err = r.project(f, op); err != nil {
			return nil, err
		}
		r.azEnd(len(rows))
	}
	return r.finish(s, op.cols, rows)
}

// outRow is one output row: its codes, and its ORDER BY keys decoded for
// sorting.
type outRow struct {
	vals []uint32
	keys []rel.Value
}

// fusedProject is the projection of a branch whose every output is a
// direct column reference and which neither deduplicates nor sorts: it
// skips the per-row staging, gathers each output column from the frame
// rows in one pass and bulk-appends the column vectors to the result —
// the same codes in the same order as the staged path. ok is false when
// the branch does not qualify; otherwise it closes the open project op.
func (r *run) fusedProject(s *SelectStmt, f *frame, op *outPlan) (t *rel.Table, ok bool, err error) {
	if s.Distinct || len(s.OrderBy) > 0 {
		return nil, false, nil
	}
	for _, it := range op.items {
		if it.at < 0 {
			return nil, false, nil
		}
	}
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
	out, err := rel.NewTable("result", op.cols...)
	if err != nil || len(rows) == 0 {
		return out, true, err
	}
	n, width := len(rows), len(op.items)
	flat := make([]uint32, n*width)
	gathered := make([][]uint32, width)
	for k, it := range op.items {
		col := flat[k*n : (k+1)*n]
		for i, row := range rows {
			col[i] = row[it.at]
		}
		gathered[k] = col
	}
	return out, true, out.AppendColumns(gathered, n)
}

// project evaluates the select list, and the ORDER BY keys, on every frame
// row. Output codes are carved from a single arena allocation covering
// every row.
func (r *run) project(f *frame, op *outPlan) ([]outRow, error) {
	width := len(op.items)
	rows := make([]outRow, len(f.rows))
	arena := make([]uint32, len(f.rows)*width)
	var krow []uint32 // the frame row extended by the output row
	if len(op.order) > 0 {
		krow = make([]uint32, len(f.names)+width)
	}
	for ri, row := range f.rows {
		vals := arena[ri*width : (ri+1)*width : (ri+1)*width]
		for i, it := range op.items {
			c, err := it.code(row)
			if err != nil {
				return nil, err
			}
			vals[i] = c
		}
		rows[ri].vals = vals
		if krow != nil {
			copy(krow, row)
			copy(krow[len(row):], vals)
			keys, err := orderKeys(op.order, krow)
			if err != nil {
				return nil, err
			}
			rows[ri].keys = keys
		}
	}
	return rows, nil
}

// group evaluates a grouped branch: rows are bucketed by the GROUP BY
// keys, in order of first appearance — without keys the whole input is
// one group, even when it is empty — and each group yields one output
// row unless HAVING rejects it. Every aggregate is computed once per
// group into its slot after the frame's columns, and HAVING and the
// select list read that row, whose frame columns hold the group's first
// row (NULLs for an empty group).
func (r *run) group(f *frame, op *outPlan) ([]outRow, error) {
	r.qs.phase(obs.PhaseAggregate)
	// Group keys are 4 bytes per key code; codes are injective over
	// values, so code-byte keys bucket exactly as value keys would, and
	// the key string is allocated only the first time a group is seen (the
	// map probe with string(buf) does not allocate).
	index := map[string]int{}
	var groups [][][]uint32
	var buf []byte
	for _, row := range f.rows {
		buf = buf[:0]
		for _, k := range op.keys {
			c, err := k.code(row)
			if err != nil {
				return nil, err
			}
			buf = rel.AppendCodeKey(buf, c)
		}
		gi, ok := index[string(buf)]
		if !ok {
			gi = len(groups)
			index[string(buf)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], row)
	}
	if len(op.keys) == 0 && len(groups) == 0 {
		groups = append(groups, nil)
	}
	width := len(f.names)
	grow := make([]uint32, width+len(op.aggs))
	rows := make([]outRow, 0, len(groups))
	for _, g := range groups {
		clear(grow[:width])
		if len(g) > 0 {
			copy(grow, g[0])
		}
		for i, a := range op.aggs {
			v, err := a.eval(g)
			if err != nil {
				return nil, err
			}
			grow[width+i] = dict.Code(v)
		}
		if op.having != nil {
			keep, err := op.having(grow)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		vals := make([]uint32, len(op.items))
		for i, it := range op.items {
			c, err := it.code(grow)
			if err != nil {
				return nil, err
			}
			vals[i] = c
		}
		keys, err := orderKeys(op.order, vals)
		if err != nil {
			return nil, err
		}
		rows = append(rows, outRow{vals: vals, keys: keys})
	}
	return rows, nil
}

// orderKeys evaluates the ORDER BY keys over one row.
func orderKeys(order []valFn, row []uint32) ([]rel.Value, error) {
	if len(order) == 0 {
		return nil, nil
	}
	keys := make([]rel.Value, len(order))
	for i, k := range order {
		v, err := k(row)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// finish applies DISTINCT, ORDER BY and LIMIT to a branch's output rows
// and builds its result table.
func (r *run) finish(s *SelectStmt, cols []string, rows []outRow) (*rel.Table, error) {
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

// evalVectorized is the filter-evaluation annotation of EXPLAIN and
// EXPLAIN ANALYZE scan steps: every pushed filter runs on the
// selection-vector kernels.
const evalVectorized = "; eval=vectorized"

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
		if len(sp.filters) > 0 {
			if matched == nil {
				// No row holds the key. A nil domain would tell vecScan
				// to scan the whole table.
				matched = []int{}
			}
			return r.vecScan(t, ref.Alias, matched, sp.vecs)
		}
		f := schemaFrame(t, ref.Alias)
		f.rows = gatherRows(t, matched)
		return f, nil
	}
	r.qs.addScanned(t.NumRows())
	if r.azTracks() {
		detail := ""
		if len(sp.filters) > 0 {
			detail = "pushdown: " + andString(sp.filters) + evalVectorized
		}
		r.azSet("scan", withStorage(detail))
	}
	if len(sp.filters) > 0 {
		r.qs.addPushdown(len(sp.filters))
		return r.vecScan(t, ref.Alias, nil, sp.vecs)
	}
	return frameOf(t, ref.Alias), nil
}

// filterFrame keeps the rows satisfying every compiled conjunct of a
// post-join residue. When the input spans at least two morsels the scan
// runs on the worker pool; kept rows merge in input order, so the
// parallel result is byte-identical to the serial scan's.
func (r *run) filterFrame(f *frame, progs []CodePred) (*frame, error) {
	r.qs.phase(obs.PhaseFilter)
	out := &frame{aliases: f.aliases, names: f.names}
	if kept, ran, err := r.parallelFilter(f.rows, progs); ran {
		out.rows = kept
		return out, err
	}
	out.rows = f.rows[:0:0]
	for _, row := range f.rows {
		keep, err := evalPreds(progs, row)
		if err != nil {
			return nil, err
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// gatherRows returns t's code rows at idx, in order. It reads the table's
// row-major cache only when there are rows to gather: building that cache
// for a fresh epoch is a pass over the whole table.
func gatherRows[T int | uint32](t *rel.Table, idx []T) [][]uint32 {
	rows := make([][]uint32, len(idx))
	if len(idx) == 0 {
		return rows
	}
	crows := t.CodeRows()
	for i, ri := range idx {
		rows[i] = crows[ri]
	}
	return rows
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

// joinPair is one cross-side column equality of a hash or index join:
// the column's position in the left and in the right frame.
type joinPair struct{ li, ri int }

// hashJoinPairs reports whether the ON condition is a conjunction of
// cross-side column equalities, and if so returns the column index pairs —
// the hash-join eligibility test the planner runs.
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
func inBoth(f, g *frame, c Col) bool {
	return c.Qualifier == "" && slices.Contains(f.names, c.Name) && slices.Contains(g.names, c.Name)
}

// join combines f with g as jp plans: a hash or index join on its column
// pairs, or a nested loop filtered by its compiled ON (on is the clause as
// written, for EXPLAIN ANALYZE). Join output is always f-major: left rows
// in scan order, each followed by its matches. Every strategy below —
// serial or parallel — preserves that order, so results are deterministic
// regardless of worker count.
func (r *run) join(f, g *frame, jp joinPlan, on Expr) (*frame, error) {
	r.qs.phase(obs.PhaseJoin)
	pairs := jp.pairs
	out := &frame{
		aliases: append(append([]string(nil), f.aliases...), g.aliases...),
		names:   append(append([]string(nil), f.names...), g.names...),
	}
	if pairs == nil {
		// Nested loop with ON filter; candidate rows carve from an arena
		// and rejected candidates return their space.
		r.qs.addLoopJoin()
		if r.azTracks() {
			r.azSet("", "nested-loop: "+on.String())
		}
		var ar codeArena
		for _, a := range f.rows {
			for _, b := range g.rows {
				row := ar.joinRow(a, b)
				ok, err := jp.on(row)
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
					if a[p.li] == rel.NullCode && !r.ev.NullEq {
						ok = false // ANSI NULL keys never match
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
					if b[p.ri] == rel.NullCode && !r.ev.NullEq {
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
