package sqlmini

import (
	"fmt"
	"strings"

	"coherdb/internal/rel"
)

// EXPLAIN SELECT support: explainSelect renders the plan the executor
// would follow — index scans and scans with pushed-down predicates, each
// join's strategy as its joinPlan records it (index nested-loop on the
// right source's persistent index, hash built over the right input, or
// nested loop), residual filters, grouping, sorting and UNION combination
// — as a relation, without executing the query. The strategy is the one
// the executor runs: the planner fixes it, and no row count changes it.
// Every filter, residue, ON and HAVING runs on the selection-vector
// kernels, and a select item, grouping key or ORDER BY key that is not a
// bare column runs as a compiled value over the frame's vectors. Estimated cardinalities use
// coarse textbook rules: an index scan keeps rows/distinct-keys, a filter
// keeps a third of its input per conjunct, a hash join produces
// max(left, right) rows, a nested-loop join a third of the cross product,
// grouping a quarter of its input.

// parallelDetail renders the parallel-phase annotation for a plan step
// fed n rows, or "" when the executor's gate (pool present, enough rows
// for two morsels, more than one worker) would keep the phase serial.
func (r *run) parallelDetail(kind string, n int) string {
	p, workers, morsel := r.parallel(n)
	if p == nil {
		return ""
	}
	return fmt.Sprintf("parallel %s (workers=%d, morsel=%d)", kind, workers, morsel)
}

// estFilter shrinks an estimate by one third per conjunct, never
// estimating below one row for a non-empty input.
func estFilter(est, conjuncts int) int {
	if est == 0 {
		return 0
	}
	for ; conjuncts > 0; conjuncts-- {
		est /= 3
	}
	if est < 1 {
		return 1
	}
	return est
}

// estIndexJoin estimates index nested-loop output: the cross product
// shrunk by the indexed side's distinct key count.
func estIndexJoin(l, r, distinct int) int {
	if l == 0 || r == 0 {
		return 0
	}
	return max(1, l*r/max(1, distinct))
}

// andString renders conjuncts joined with AND.
func andString(cs []Expr) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// withStorage appends the storage-engine annotation to a leaf scan step's
// detail: every table access reads dictionary-code column vectors, and the
// plan says so the same way it reports parallelism.
func withStorage(detail string) string {
	const s = "storage=columnar"
	if detail == "" {
		return s
	}
	return detail + "; " + s
}

// indexScanDetail renders "index(col, ...) = (val, ...)".
func indexScanDetail(sp srcPlan) string {
	vals := make([]string, len(sp.eqVals))
	for i, v := range sp.eqVals {
		vals[i] = Lit{Val: v}.String()
	}
	return fmt.Sprintf("index(%s) = (%s)", strings.Join(sp.eqCols, ","), strings.Join(vals, ","))
}

// planRow appends one step to the plan table.
func planRow(out *rel.Table, op, target string, est int, detail string) error {
	return out.InsertRow([]rel.Value{
		rel.I(int64(out.NumRows() + 1)),
		rel.S(op),
		rel.S(target),
		rel.I(int64(est)),
		rel.S(detail),
	})
}

// explainSelect builds the plan table for a SELECT (including its UNION
// chain) without executing it, from the same cached branch plans the
// executor uses.
func (r *run) explainSelect(s *SelectStmt) (*rel.Table, error) {
	out, err := rel.NewTable("plan", "step", "op", "target", "est_rows", "detail")
	if err != nil {
		return nil, err
	}
	plans, err := r.plansFor(s)
	if err != nil {
		return nil, err
	}
	est, err := r.explainBranch(out, firstBranch(s), plans[0])
	if err != nil {
		return nil, err
	}
	bi := 1
	for u, all := s.Union, s.UnionAll; u != nil; u, all = u.Union, u.UnionAll {
		branch := *u
		branch.Union = nil
		be, err := r.explainBranch(out, &branch, plans[bi])
		if err != nil {
			return nil, err
		}
		bi++
		est += be
		detail := "DISTINCT"
		if all {
			detail = "ALL"
		}
		if err := planRow(out, "union", "", est, detail); err != nil {
			return nil, err
		}
	}
	if s.Union != nil {
		if _, err := explainOrder(out, s, est); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// explainBranch appends the plan steps for one SELECT branch and returns
// its estimated output cardinality.
func (r *run) explainBranch(out *rel.Table, s *SelectStmt, plan *branchPlan) (int, error) {
	type source struct {
		alias string
		t     *rel.Table
		on    Expr // nil for FROM refs (cross product)
	}
	var srcs []source
	for _, ref := range s.From {
		t, ok := r.table(ref.Name)
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoTable, ref.Name)
		}
		srcs = append(srcs, source{alias: refAlias(ref), t: t})
	}
	for _, j := range s.Joins {
		t, ok := r.table(j.Ref.Name)
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoTable, j.Ref.Name)
		}
		srcs = append(srcs, source{alias: refAlias(j.Ref), t: t, on: j.On})
	}
	est := 1 // FROM-less SELECT produces one row
	for i, sc := range srcs {
		sp := plan.srcs[i]
		rows := sc.t.NumRows()
		e := rows
		var err error
		switch {
		case len(sp.eqCols) > 0:
			ix, ixErr := sc.t.IndexOn(sp.eqCols...)
			if ixErr != nil {
				return 0, ixErr
			}
			if e > 0 {
				e = max(1, e/max(1, ix.Distinct()))
			}
			detail := indexScanDetail(sp)
			if len(sp.filters) > 0 {
				e = estFilter(e, len(sp.filters))
				detail += "; filter: " + andString(sp.filters) + evalVectorized
			}
			err = planRow(out, "indexscan", sc.alias, e, withStorage(detail))
		case len(sp.filters) > 0:
			detail := "pushdown: " + andString(sp.filters) + evalVectorized
			if pd := r.parallelDetail("scan", rows); pd != "" {
				detail += "; " + pd
			}
			e = estFilter(e, len(sp.filters))
			err = planRow(out, "scan", sc.alias, e, withStorage(detail))
		default:
			err = planRow(out, "scan", sc.alias, e, withStorage(r.parallelDetail("scan", rows)))
		}
		if err != nil {
			return 0, err
		}
		if i == 0 {
			est = e
			continue
		}
		// A join's parallel phase, its probe or its nested-loop batches,
		// runs over the left rows.
		op, detail, phase, left := "cross", "cross product", "loop", est
		if sc.on == nil {
			est *= e
		} else {
			jp := &plan.joins[i-len(s.From)]
			op, detail = "join", jp.strategy(sc.alias, sc.on)
			switch {
			case jp.index:
				ix, ixErr := sc.t.IndexOn(jp.cols...)
				if ixErr != nil {
					return 0, ixErr
				}
				est, phase = estIndexJoin(est, e, ix.Distinct()), "probe"
			case jp.pairs != nil:
				est, phase = max(est, e), "probe"
			default:
				est = estFilter(est*e, 1)
			}
		}
		if pd := r.parallelDetail(phase, left); pd != "" {
			detail += ", " + pd
		}
		if err := planRow(out, op, sc.alias, est, detail); err != nil {
			return 0, err
		}
	}
	if len(plan.residue) > 0 {
		detail := andString(plan.residue)
		if pd := r.parallelDetail("filter", est); pd != "" {
			detail += "; " + pd
		}
		est = estFilter(est, len(plan.residue))
		if err := planRow(out, "filter", "", est, detail); err != nil {
			return 0, err
		}
	}
	switch {
	case len(s.GroupBy) > 0:
		est = max(1, est/4)
		if err := planRow(out, "group", "", est, fmt.Sprintf("%d key(s)", len(s.GroupBy))); err != nil {
			return 0, err
		}
	case plan.out.grouped:
		est = 1
		if err := planRow(out, "aggregate", "", est, ""); err != nil {
			return 0, err
		}
	}
	if s.Distinct {
		if err := planRow(out, "distinct", "", est, ""); err != nil {
			return 0, err
		}
	}
	return explainOrder(out, s, est)
}

// explainOrder appends the sort and limit steps of s's ORDER BY and LIMIT
// over est rows and returns the estimated output cardinality.
func explainOrder(out *rel.Table, s *SelectStmt, est int) (int, error) {
	if len(s.OrderBy) > 0 {
		if err := planRow(out, "sort", "", est, fmt.Sprintf("%d key(s)", len(s.OrderBy))); err != nil {
			return 0, err
		}
	}
	if s.Limit >= 0 {
		est = min(est, s.Limit)
		if err := planRow(out, "limit", "", est, fmt.Sprintf("LIMIT %d", s.Limit)); err != nil {
			return 0, err
		}
	}
	return est, nil
}
