package check

import (
	"coherdb/internal/delta"
	"coherdb/internal/obs"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// inputSets returns each invariant's (table, columns) dependency list; see
// deps.
func (s *Suite) inputSets() [][]delta.Input {
	ins, _ := s.deps()
	return ins
}

// deps returns what RunDelta knows of each invariant, extracted once from
// its SQL and cached on the suite: its (table, columns) dependency list —
// nil when the SQL could not be analyzed, and such an invariant is always
// re-checked — and its shape when a touched re-check can run seeded (see
// sqlmini.ShapeOf), nil when it re-runs in full. Inputs restored from a
// persisted graph (RestoreInputs) are kept.
func (s *Suite) deps() ([][]delta.Input, []*sqlmini.Shape) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inputs != nil && s.shapes != nil {
		return s.inputs, s.shapes
	}
	ins := make([][]delta.Input, len(s.invs))
	shapes := make([]*sqlmini.Shape, len(s.invs))
	for i, inv := range s.invs {
		if deps, err := sqlmini.QueryInputs(inv.SQL); err == nil {
			ins[i] = deps // nil ⇒ conservative: always dirty
		}
		if st, err := sqlmini.ParseStatement(inv.SQL); err == nil {
			if sh, ok := sqlmini.ShapeOf(st); ok {
				shapes[i] = &sh
			}
		}
	}
	if s.inputs == nil {
		s.inputs = ins
	}
	s.shapes = shapes
	return s.inputs, s.shapes
}

// RunDelta is the incremental form of Run: given the previous run's
// results and the delta a revision produced (sqlmini.Revision.Commit), it
// re-checks only the invariants whose input columns the delta touches and
// carries the rest over from prev, marked Skipped. Carrying a result over
// is sound because an invariant whose referenced columns are untouched
// sees a row-for-row identical projection of every table it reads (see
// rel.TableDelta.Touches for the cardinality caveat that forces re-runs on
// row-count changes).
//
// A touched invariant over one table re-runs seeded (see seedFor) on the
// rows the delta could have changed the outcome of, when its previous
// result placed its rows in the table state the delta starts from: a
// selection over its previous violations and the changed rows, a grouped
// check over the groups the changed rows belong to. An empty seed over an
// empty previous result keeps that result. Any other invariant, and a
// seeded run that fails — its table moved on since the delta was taken,
// say — re-runs in full, so every result is the one Run would return.
//
// With prev or d missing (or the suite changed shape since prev) it falls
// back to a full Run. The "check.suite" span carries delta_rows, skipped,
// rechecked and rows_evaluated attributes; opts.Metrics accumulates the
// coherdb_delta_nodes_skipped_total / coherdb_delta_rows_reused_total
// counters, and observes each query it runs as Run does: a kept result
// runs none, so it counts as rechecked but is not observed.
func (s *Suite) RunDelta(db DBLike, prev []Result, d *delta.Set, opts Options) []Result {
	if prev == nil || len(prev) != len(s.invs) || d == nil {
		return s.Run(db, opts)
	}
	for i, r := range prev {
		if r.Invariant.Name != s.invs[i].Name {
			return s.Run(db, opts) // suite changed since prev
		}
	}

	ins, shapes := s.deps()
	results := make([]Result, len(s.invs))
	var jobs []job
	var kept []int // touched invariants whose empty result stands
	for i := range s.invs {
		var td *rel.TableDelta // the delta of the table a shape places rows in
		if shapes[i] != nil {
			td = d.Table(shapes[i].Table)
		}
		// Re-check on touched inputs, unanalyzable SQL, or a previous
		// error (an errored result proves nothing to carry over).
		if prev[i].Err != nil || ins[i] == nil || delta.DirtyInputs(d, ins[i]) {
			j := job{i: i}
			if td != nil {
				j.seed, j.seeded = seedFor(db, shapes[i], prev[i], td)
				j.base = td.NewVersion
			}
			if j.seeded && len(j.seed) == 0 && prev[i].Violations.Empty() {
				r := prev[i]
				r.Skipped, r.Elapsed, r.Stats, r.base = false, 0, nil, j.base
				results[i] = r
				kept = append(kept, i)
				continue
			}
			jobs = append(jobs, j)
			continue
		}
		r := prev[i]
		r.Skipped = true
		r.Elapsed = 0
		if td != nil && r.base == td.OldVersion {
			// The table kept its row count and the invariant's columns,
			// so the result and its positions stand for the new state.
			r.base = td.NewVersion
		}
		results[i] = r
	}
	rechecked := len(jobs) + len(kept)

	s.runSubset(db, jobs, results, opts, func() []obs.Attr {
		return []obs.Attr{
			obs.Int("delta_rows", d.Rows()),
			obs.Int("skipped", len(s.invs)-rechecked),
			obs.Int("rechecked", rechecked),
		}
	})

	rowsReused, nodesSkipped := delta.Counters(opts.Metrics)
	if nodesSkipped != nil {
		nodesSkipped.Add(int64(len(s.invs) - rechecked))
	}
	if rowsReused != nil {
		rows := func(name string) int64 {
			if t, ok := db.Table(name); ok {
				return int64(t.NumRows())
			}
			return 0
		}
		var reused int64
		for i := range s.invs {
			if !results[i].Skipped {
				continue
			}
			for _, in := range ins[i] {
				reused += rows(in.Table)
			}
		}
		for _, i := range kept {
			reused += rows(shapes[i].Table)
		}
		for _, j := range jobs {
			if j.seeded {
				reused += max(0, rows(shapes[j.i].Table)-int64(results[j.i].rowsRead()))
			}
		}
		rowsReused.Add(reused)
	}
	return results
}

// seedFor returns the rows of its table a touched invariant of shape sh
// must re-read after td, the delta of that table, given its previous
// result, and whether it can be re-checked from them at all: prev must
// have placed its rows (Positions) in the table state td starts from, td
// must keep the table's schema, and db must show the table at the state
// td ends in. Under concurrent writers neither is a given: a server
// session's Commit, its queries and this call each read the shared
// catalog as it is at that moment.
//
// The delta keeps every row outside its changed positions and their
// order, and an invariant decides each row, or each group, from its own
// values. So a selection's violations are its previous ones that the
// delta kept, at their new positions, and any among the rows the delta
// added or rewrote: the seed is those rows. A grouped check's verdict on
// a group can change only if the group gained or lost a row: the seed is
// every row whose group key is that of a removed row, of an added row, or
// of a previously violating group, whose rows must be re-read for its
// result to list it.
func seedFor(db DBLike, sh *sqlmini.Shape, prev Result, td *rel.TableDelta) ([]uint32, bool) {
	if prev.Err != nil || prev.Positions == nil || prev.base != td.OldVersion || td.SchemaChanged {
		return nil, false
	}
	t, ok := db.Table(sh.Table)
	if !ok || t.Version() != td.NewVersion {
		return nil, false
	}
	kept := td.MapKept(prev.Positions)
	if sh.GroupBy == nil {
		return mergeRows(kept, td.NewPos), true
	}
	ps := make([]int, len(sh.GroupBy))
	cols := make([][]uint32, t.NumCols())
	for k, c := range sh.GroupBy {
		if ps[k] = t.ColIndex(c); ps[k] < 0 {
			return nil, false
		}
		cols[ps[k]] = t.ColCodes(ps[k])
	}
	keys := rel.NewCodeKeys(len(ps), len(td.Removed)+len(td.NewPos)+len(kept))
	key := make([]uint32, len(ps))
	for _, row := range td.Removed {
		for k, j := range ps {
			key[k] = row[j]
		}
		keys.Intern(key)
	}
	for _, r := range td.NewPos {
		keys.Intern(keys.Row(cols, ps, int(r)))
	}
	for _, r := range kept {
		keys.Intern(keys.Row(cols, ps, int(r)))
	}
	seed := []uint32{}
	if keys.Len() == 0 {
		return seed, true
	}
	for r := range t.NumRows() {
		if keys.Find(keys.Row(cols, ps, r)) >= 0 {
			seed = append(seed, uint32(r))
		}
	}
	return seed, true
}

// mergeRows merges two ascending lists of distinct rows.
func mergeRows(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
