package constraint

import (
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
)

// stepSig identifies what a solve step depends on: the column it appends,
// the interned domain it sweeps, and the constraints that fire at it. Two
// steps with equal signatures over equal input rows produce equal output
// rows, so a memoized step whose signature still matches can be skipped.
type stepSig struct {
	column string
	domain []uint32
	fire   []fireSig
}

// fireSig names one firing constraint by column and the mutation stamp of
// its last Constrain call. Expressions themselves are not comparable
// (several AST nodes hold slices), so the stamp stands in for identity:
// re-constraining a column bumps its stamp and dirties exactly the steps
// it fires at.
type fireSig struct {
	col string
	gen uint64
}

// stepMemo is one completed step of the previous solve: its signature,
// the partial table after the step, and the step's recorded stats. The
// part's vectors are shared with the steps after it, which never write
// them.
type stepMemo struct {
	sig  stepSig
	part part
	stat StepStat
}

// IncrementalSolver re-solves a spec across small edits, reusing the
// per-step partial tables of the previous solve. Each column-extension
// step is memoized with its signature (column, domain codes, firing
// constraints); a re-solve replays the memo until the first step whose
// signature changed and re-executes only from there. When every step
// matches, the previous result table is returned by pointer — so a
// delta.Tracker sees the table as untouched and downstream checking
// skips entirely.
//
// The solver assumes registered functions are pure: results are memoized
// across calls, so a function whose behavior changes without a
// RegisterFunc call yields stale rows. Re-registering (even the same
// name) invalidates the whole memo.
//
// An IncrementalSolver is not safe for concurrent use.
type IncrementalSolver struct {
	opts Options

	spec    *Spec
	funcGen uint64
	memo    []stepMemo
	out     *rel.Table
	outRev  uint64
	valid   bool
}

// NewIncrementalSolver creates a solver for spec. The first Solve runs
// every step and seeds the memo.
func NewIncrementalSolver(spec *Spec, opts Options) *IncrementalSolver {
	return &IncrementalSolver{spec: spec, opts: opts}
}

// Solve re-solves the current spec, reusing memoized steps where the
// signatures still match. Results are byte-identical to SolveOpts on the
// same spec; Stats.ReusedSteps reports how many leading steps were served
// from the memo, and Candidates/Pruned/MemoHits/StepStats cover only the
// re-executed suffix.
func (s *IncrementalSolver) Solve() (_ *rel.Table, stats Stats, err error) {
	spec := s.spec
	span := obs.StartSpan(s.opts.Tracer, "constraint.solve_incremental", obs.String("controller", spec.Name))
	defer func() { s.opts.observe(span, spec.Name, stats, err) }()

	t0 := time.Now()
	cc, err := spec.compiledConstraints()
	stats.CompileTime = time.Since(t0)
	if err != nil {
		s.valid = false
		return nil, stats, err
	}
	run := newSolveRun(spec, cc, s.opts.workers(), span, &stats)
	fireAt := run.fireAt

	// A re-registered function can change any constraint's meaning without
	// touching its expression; drop everything.
	if spec.funcGen != s.funcGen {
		s.memo, s.out, s.valid = nil, nil, false
		s.funcGen = spec.funcGen
	}

	// Walk the memo prefix while signatures match. Domains are interned
	// here once and handed to the re-execution loop below.
	domains := make([][]uint32, len(spec.cols))
	reuse := 0
	if s.valid {
		for i, col := range spec.cols {
			if i >= len(s.memo) {
				break
			}
			m := &s.memo[i]
			if m.sig.column != col.Name {
				break
			}
			domains[i] = encodeDomain(col.Domain())
			if !equalCodes(domains[i], m.sig.domain) {
				break
			}
			if !sameFire(fireAt[i], m.sig.fire, spec) {
				break
			}
			reuse = i + 1
		}
	}
	stats.ReusedSteps = reuse
	stats.Steps = reuse
	if span != nil {
		span.SetAttr(obs.Int("total_steps", len(spec.cols)))
	}

	if reuse == len(spec.cols) && reuse == len(s.memo) && s.out != nil {
		// Nothing changed. Hand back the previous table by pointer so a
		// delta.Tracker's identity fast path reports it untouched —
		// unless a caller mutated it since (its revision moved), in which
		// case rebuild a fresh table from the memoized rows.
		if s.out.Revision() == s.outRev {
			stats.Rows = s.out.NumRows()
			return s.out, stats, nil
		}
		return s.emit(stats)
	}

	cur := part{n: 1}
	if reuse > 0 {
		cur = s.memo[reuse-1].part
	}
	s.memo = s.memo[:reuse]
	for i := reuse; i < len(spec.cols); i++ {
		col := spec.cols[i]
		if domains[i] == nil {
			domains[i] = encodeDomain(col.Domain())
		}
		if cur, err = run.step(cur, i, domains[i]); err != nil {
			s.valid = false
			return nil, stats, err
		}
		s.memo = append(s.memo, stepMemo{
			sig:  stepSig{column: col.Name, domain: domains[i], fire: fireSigs(fireAt[i], spec)},
			part: cur,
			stat: stats.StepStats[len(stats.StepStats)-1],
		})
		if cur.n == 0 {
			break // inconsistent constraints: empty table (paper §3)
		}
	}
	return s.emit(stats)
}

// emit materializes the final memoized part into a fresh result table and
// records it (with its revision) for pointer reuse on the next solve.
func (s *IncrementalSolver) emit(stats Stats) (*rel.Table, Stats, error) {
	var last part
	if n := len(s.memo); n > 0 {
		last = s.memo[n-1].part
	}
	out, err := newResult(s.spec, last)
	if err != nil {
		s.valid = false
		return nil, stats, err
	}
	stats.Rows = out.NumRows()
	s.out, s.outRev, s.valid = out, out.Revision(), true
	return out, stats, nil
}

func fireSigs(fire []compiledConstraint, spec *Spec) []fireSig {
	if len(fire) == 0 {
		return nil
	}
	out := make([]fireSig, len(fire))
	for i, c := range fire {
		out[i] = fireSig{col: c.col, gen: spec.conGen[c.col]}
	}
	return out
}

func sameFire(fire []compiledConstraint, sig []fireSig, spec *Spec) bool {
	if len(fire) != len(sig) {
		return false
	}
	for i, c := range fire {
		if sig[i].col != c.col || sig[i].gen != spec.conGen[c.col] {
			return false
		}
	}
	return true
}

func equalCodes(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
