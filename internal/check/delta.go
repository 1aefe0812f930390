package check

import (
	"coherdb/internal/delta"
	"coherdb/internal/obs"
	"coherdb/internal/sqlmini"
)

// inputSets returns each invariant's (table, columns) dependency list,
// extracted once from its SQL and cached on the suite. A nil entry means
// the SQL could not be analyzed; such invariants are always re-checked.
func (s *Suite) inputSets() [][]delta.Input {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inputs != nil {
		return s.inputs
	}
	ins := make([][]delta.Input, len(s.invs))
	for i, inv := range s.invs {
		deps, err := sqlmini.QueryInputs(inv.SQL)
		if err != nil {
			continue // nil ⇒ conservative: always dirty
		}
		ins[i] = deps
	}
	s.inputs = ins
	return ins
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
// With prev or d missing (or the suite changed shape since prev) it falls
// back to a full Run. The "check.suite" span carries delta_rows, skipped
// and rechecked attributes; opts.Metrics accumulates the
// coherdb_delta_nodes_skipped_total / coherdb_delta_rows_reused_total
// counters.
func (s *Suite) RunDelta(db DBLike, prev []Result, d *delta.Set, opts Options) []Result {
	if prev == nil || len(prev) != len(s.invs) || d == nil {
		return s.Run(db, opts)
	}
	for i, r := range prev {
		if r.Invariant.Name != s.invs[i].Name {
			return s.Run(db, opts) // suite changed since prev
		}
	}

	ins := s.inputSets()
	results := make([]Result, len(s.invs))
	var idx []int
	for i := range s.invs {
		// Re-check on touched inputs, unanalyzable SQL, or a previous
		// error (an errored result proves nothing to carry over).
		if prev[i].Err != nil || ins[i] == nil || delta.DirtyInputs(d, ins[i]) {
			idx = append(idx, i)
			continue
		}
		r := prev[i]
		r.Skipped = true
		r.Elapsed = 0
		results[i] = r
	}

	rowsReused, nodesSkipped := delta.Counters(opts.Metrics)
	if nodesSkipped != nil {
		nodesSkipped.Add(int64(len(s.invs) - len(idx)))
	}
	if rowsReused != nil {
		var reused int64
		for i := range s.invs {
			if !results[i].Skipped {
				continue
			}
			for _, in := range ins[i] {
				if t, ok := db.Table(in.Table); ok {
					reused += int64(t.NumRows())
				}
			}
		}
		rowsReused.Add(reused)
	}

	s.runSubset(db, idx, results, opts, func() []obs.Attr {
		return []obs.Attr{
			obs.Int("delta_rows", d.Rows()),
			obs.Int("skipped", len(s.invs)-len(idx)),
			obs.Int("rechecked", len(idx)),
		}
	})
	return results
}
