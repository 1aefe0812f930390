package sqlmini

import (
	"errors"
	"fmt"

	"coherdb/internal/rel"
)

// Seeded execution re-runs a positional SELECT over some of its base
// table's rows: the caller knows that the rows it lists — the seed — are
// the only ones whose outcome could have changed since a previous run,
// and that the result over them is the result over the whole table. The
// scan starts from the seed instead of the table, every pushed conjunct
// narrows it on its kernel, the equality conjuncts included (a seeded
// scan probes no index), and the rest of the statement runs as usual. The
// incremental invariant re-check (check.Suite.RunDelta) is the caller:
// after a one-row edit it re-runs a selection over the edited rows and
// the previous violations, and a grouped check over the rows of the
// groups the edit touched.

// ErrNotPositional is returned by a seeded execution of a statement that
// is not a positional SELECT.
var ErrNotPositional = errors.New("sqlmini: only a single-table SELECT without JOIN, UNION, DISTINCT, ORDER BY or LIMIT runs seeded")

// ErrStaleSeed is returned by a seeded execution whose table, as the
// statement reads it, is not at the state the seed was taken from: a
// writer published another since.
var ErrStaleSeed = errors.New("sqlmini: the seeded table is not at the seed's version")

// positional reports whether each output row of s is one row of its only
// table source, or one group of those rows: one source, no JOIN, no
// UNION, and nothing that drops or reorders output rows.
func positional(s *SelectStmt) bool {
	return len(s.From) == 1 && len(s.Joins) == 0 && s.Union == nil &&
		!s.Distinct && len(s.OrderBy) == 0 && s.Limit < 0
}

// Shape is how the output rows of a positional SELECT relate to the rows
// of its base table, for re-running it seeded.
type Shape struct {
	// Table is the base table.
	Table string
	// GroupBy lists, in order, the columns a grouped statement groups by:
	// each output row is then one group of the rows that agree on them,
	// and its position is the group's first row. A selection — no
	// grouping, no HAVING, no aggregate — leaves it nil: each output row
	// is one base row that passed WHERE, at its own position.
	GroupBy []string
}

// ShapeOf classifies st for seeded re-execution: ok when it is a
// positional SELECT that is a selection or groups by plain columns of
// its table.
func ShapeOf(st Stmt) (Shape, bool) {
	s, ok := st.(*SelectStmt)
	if !ok || !positional(s) {
		return Shape{}, false
	}
	sh := Shape{Table: s.From[0].Name}
	if len(s.GroupBy) == 0 {
		if s.Having != nil {
			return Shape{}, false
		}
		for _, it := range s.Items {
			if !it.Star && hasAgg(it.Expr) {
				return Shape{}, false
			}
		}
		return sh, true
	}
	for _, g := range s.GroupBy {
		c, ok := g.(Col)
		if !ok || (c.Qualifier != "" && c.Qualifier != refAlias(s.From[0])) {
			return Shape{}, false
		}
		sh.GroupBy = append(sh.GroupBy, c.Name)
	}
	return sh, true
}

// ExecSeeded executes the prepared SELECT like ExecStatsDialect, but its
// scan starts from the base rows seed lists — ascending positions of the
// table state base, which may be empty — instead of the whole table. The
// statement must be positional (ErrNotPositional otherwise) and must read
// its table at base (ErrStaleSeed otherwise); Result.Positions holds each
// output row's base position.
func (p *Prepared) ExecSeeded(strict bool, base rel.Version, seed []uint32) (*Result, QueryStats, error) {
	var qs QueryStats
	res, err := p.db.execute(p.entry.stmt, execOpts{entry: p.entry, src: p.src, planCache: "hit", into: &qs,
		sess: p.sess, strict: &strict, track: true, seeded: true, seed: seed, base: base})
	return res, qs, err
}

// position sets up output-position tracking and the seed of one
// statement per o: a positional SELECT reports its positions when asked,
// and only a positional SELECT runs seeded.
func (r *run) position(stmt Stmt, o execOpts) error {
	if !o.track {
		return nil
	}
	if s, ok := stmt.(*SelectStmt); ok && positional(s) {
		r.track, r.seeded, r.seed, r.base = true, o.seeded, o.seed, o.base
		return nil
	}
	if o.seeded {
		return ErrNotPositional
	}
	return nil
}

// seedFrame narrows the frame over t's n rows to the seed rows that pass
// every pushed conjunct of sp, the equality conjuncts included. t must be
// at the seed's version.
func (r *run) seedFrame(t *rel.Table, f *frame, sp srcPlan) error {
	if t.Version() != r.base {
		return ErrStaleSeed
	}
	for i, p := range r.seed {
		if int(p) >= f.n || (i > 0 && r.seed[i-1] >= p) {
			return fmt.Errorf("sqlmini: seed row %d: not ascending below %d", p, f.n)
		}
	}
	r.qs.addScanned(len(r.seed))
	r.qs.addPushdown(len(sp.eqCols) + len(sp.filters))
	f.sel = append(make([]uint32, 0, len(r.seed)), r.seed...)
	for _, vecs := range [][]*VecPred{sp.eqVecs, sp.vecs} {
		if len(vecs) == 0 || len(f.sel) == 0 {
			continue
		}
		if err := r.narrow(f, vecs); err != nil {
			return err
		}
	}
	return nil
}
