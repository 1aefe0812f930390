// Package check implements the paper's §4.3 static protocol checking: each
// invariant is a SQL SELECT whose result must be empty ("[Select ... from D
// where <violation>] = empty"). The suite contains the paper's published
// invariants plus the rest of a ~50-invariant family in the same style,
// covering directory consistency, request serialization, busy-directory
// life cycle, message-column discipline and the per-controller tables.
//
// Invariant queries are evaluated under ANSI NULL semantics (a comparison
// with a dontcare/noop NULL is unknown, so such rows never count as
// violations), matching the behaviour of the relational system the paper
// deployed.
package check

import (
	"fmt"
	"sync"
	"time"

	"coherdb/internal/delta"
	"coherdb/internal/obs"
	"coherdb/internal/pool"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Invariant is one statically checkable protocol property.
type Invariant struct {
	// Name is a short unique identifier, e.g. "dir-mesi-one".
	Name string
	// Desc says what property the invariant establishes.
	Desc string
	// Ref cites the paper section the invariant comes from, or "family"
	// for the systematic completions.
	Ref string
	// SQL is a SELECT over the controller tables returning the violating
	// rows; the invariant holds iff the result is empty.
	SQL string
}

// Result is the outcome of checking one invariant.
type Result struct {
	Invariant  Invariant
	Violations *rel.Table
	Elapsed    time.Duration
	Err        error
	// Stats is the invariant query's execution profile (rows scanned,
	// join strategies, morsel/steal counts). Zero when the query fell
	// back to the unprepared path.
	Stats sqlmini.QueryStats
	// Skipped marks a result carried over from the previous run by
	// RunDelta because the invariant's input columns were untouched by
	// the revision's delta; Violations then aliases the prior table.
	Skipped bool
}

// Passed reports whether the invariant held.
func (r Result) Passed() bool { return r.Err == nil && r.Violations != nil && r.Violations.Empty() }

// Suite is an ordered collection of invariants.
type Suite struct {
	invs []Invariant
	// inputs caches each invariant's (table, columns) dependency list,
	// extracted from its SQL; see inputSets. Dropped on Add. mu guards it:
	// concurrent server sessions re-check through one shared suite.
	mu     sync.Mutex
	inputs [][]delta.Input
}

// NewSuite builds an empty suite.
func NewSuite() *Suite { return &Suite{} }

// SuiteFrom builds a suite from already-parsed invariants, e.g. the static
// checks embedded in a spec file.
func SuiteFrom(invs []Invariant) *Suite {
	s := NewSuite()
	for _, inv := range invs {
		s.Add(inv)
	}
	return s
}

// Add appends an invariant. Duplicate names panic: suites are static.
func (s *Suite) Add(inv Invariant) *Suite {
	for _, have := range s.invs {
		if have.Name == inv.Name {
			panic(fmt.Sprintf("check: duplicate invariant %q", inv.Name))
		}
	}
	s.invs = append(s.invs, inv)
	s.mu.Lock()
	s.inputs = nil
	s.mu.Unlock()
	return s
}

// Len returns the number of invariants.
func (s *Suite) Len() int { return len(s.invs) }

// Invariants returns the invariants in order.
func (s *Suite) Invariants() []Invariant { return append([]Invariant(nil), s.invs...) }

// Options tunes suite execution.
type Options struct {
	// Workers bounds parallelism on the shared worker pool; 0 means the
	// pool's full size, 1 runs the suite inline.
	Workers int
	// Tracer, when set, receives a "check.suite" span plus one
	// "check.invariant" child span per invariant.
	Tracer obs.Tracer
	// Metrics, when set, accumulates a per-invariant duration histogram
	// (coherdb_invariant_duration_seconds) and violation counter
	// (coherdb_invariant_violations_total).
	Metrics *obs.Registry
}

// observe reports one finished invariant check to metrics.
func (o Options) observe(r Result) {
	if o.Metrics == nil {
		return
	}
	violations := 0
	if r.Violations != nil {
		violations = r.Violations.NumRows()
	}
	o.Metrics.Help("coherdb_invariant_duration_seconds", "Wall time of each invariant query.")
	o.Metrics.Histogram("coherdb_invariant_duration_seconds", nil, obs.L("invariant", r.Invariant.Name)).ObserveDuration(r.Elapsed)
	o.Metrics.Help("coherdb_invariant_violations_total", "Violating rows returned by each invariant query.")
	o.Metrics.Counter("coherdb_invariant_violations_total", obs.L("invariant", r.Invariant.Name)).Add(int64(violations))
}

// DBLike is the catalog view a suite runs against: the shared
// *sqlmini.DB, or one *sqlmini.Session (the server's per-session
// incremental re-check path). Both prepare through the shared plan cache
// and resolve tables through their own snapshot/overlay view.
type DBLike interface {
	Prepare(src string) (*sqlmini.Prepared, error)
	Query(src string) (*rel.Table, error)
	Table(name string) (*rel.Table, bool)
}

// Run checks every invariant against db and returns results in suite
// order. Invariants are independent queries, so they are dealt one at a
// time to the shared worker pool (work stealing keeps an expensive
// invariant from serializing the rest); Workers: 1 runs the suite inline.
// Every invariant query executes with its NULL dialect pinned to strict
// ANSI for just that statement, so concurrent sessions running their own
// suites (or the constraint dialect) never perturb each other.
func (s *Suite) Run(db DBLike, opts Options) []Result {
	results := make([]Result, len(s.invs))
	idx := make([]int, len(s.invs))
	for i := range idx {
		idx[i] = i
	}
	s.runSubset(db, idx, results, opts, nil)
	return results
}

// runSubset checks the invariants named by idx, writing their results into
// the matching slots of results; other slots are left as the caller set
// them. extra builds attributes for the "check.suite" span; it runs, and
// the span's attributes are formatted, only when opts has a tracer.
func (s *Suite) runSubset(db DBLike, idx []int, results []Result, opts Options, extra func() []obs.Attr) {
	exec := pool.Shared()
	workers := opts.Workers
	if workers <= 0 || workers > exec.Size() {
		workers = exec.Size()
	}
	if workers > len(idx) {
		workers = len(idx)
	}

	// Prepare every invariant up front: re-running the suite (the paper's
	// every-revision workflow) then never re-parses or re-plans a query.
	prepared := make([]*sqlmini.Prepared, len(idx))
	for k, i := range idx {
		prepared[k], _ = db.Prepare(s.invs[i].SQL) // a nil entry falls back to Query
	}

	var suite *obs.Span
	if opts.Tracer != nil {
		attrs := []obs.Attr{obs.Int("invariants", len(idx)), obs.Int("workers", workers)}
		if extra != nil {
			attrs = append(attrs, extra()...)
		}
		suite = obs.StartSpan(opts.Tracer, "check.suite", attrs...)
	}
	if len(idx) == 0 {
		suite.Finish()
		return
	}
	st, _ := exec.Each(workers, len(idx), 1, func(k, _, _ int) error {
		i := k
		inv := s.invs[idx[i]]
		var sp *obs.Span
		if suite != nil {
			sp = suite.Child("check.invariant", obs.String("invariant", inv.Name))
		}
		start := time.Now()
		var tab *rel.Table
		var qs sqlmini.QueryStats
		var err error
		if p := prepared[i]; p != nil {
			var res *sqlmini.Result
			res, qs, err = p.ExecStatsDialect(true)
			if err == nil {
				tab = res.Table
				if tab == nil {
					err = fmt.Errorf("check: invariant %q is not a query", inv.Name)
				}
			}
		} else {
			tab, err = db.Query(inv.SQL)
		}
		r := Result{
			Invariant:  inv,
			Violations: tab,
			Elapsed:    time.Since(start),
			Err:        err,
			Stats:      qs,
		}
		if sp != nil {
			violations := 0
			if tab != nil {
				violations = tab.NumRows()
			}
			sp.SetAttr(obs.Int("violations", violations))
			if err != nil {
				sp.SetAttr(obs.String("error", err.Error()))
			}
			sp.Finish()
		}
		opts.observe(r)
		results[idx[i]] = r
		return nil
	})
	if suite != nil {
		suite.SetAttr(obs.Int("steals", st.Steals))
		suite.Finish()
	}
}

// Summary aggregates a run.
type Summary struct {
	Total, Passed, Failed, Errors int
	Elapsed                       time.Duration
}

// Summarize folds results into a summary.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		s.Total++
		s.Elapsed += r.Elapsed
		switch {
		case r.Err != nil:
			s.Errors++
		case r.Passed():
			s.Passed++
		default:
			s.Failed++
		}
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%d invariants: %d passed, %d failed, %d errors (%.1fms total query time)",
		s.Total, s.Passed, s.Failed, s.Errors, float64(s.Elapsed.Microseconds())/1000)
}
