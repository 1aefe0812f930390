package constraint

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Stats reports the work done by a solve.
type Stats struct {
	// Rows is the number of rows in the generated table.
	Rows int
	// Candidates is the number of candidate (partial or complete)
	// assignments tested against constraints.
	Candidates uint64
	// Pruned is the number of candidates rejected by a constraint.
	Pruned uint64
	// Steps is the number of column-extension steps (incremental only).
	Steps int
	// ReusedSteps is the number of leading steps served from an
	// IncrementalSolver's memo instead of being re-executed; always zero
	// for the one-shot solvers.
	ReusedSteps int
	// MemoHits is the number of candidates whose constraint verdict was
	// served by the projection memo instead of being evaluated: candidates
	// sharing a referenced-column projection with an earlier candidate at
	// the same step. A step reads the projections from the partial table's
	// code vectors and groups its rows by them, so each group's verdicts
	// are evaluated once for all of its rows.
	MemoHits uint64
	// ArmSelections is the number of first-match selections evaluated,
	// however many of a rule-chain family's members fire. A family whose
	// members fire at several steps selects once per distinct projection
	// of a row onto its condition columns, and later steps look the arm up
	// in the solve's memo without counting. A family whose members all
	// fire at one step selects once per group of that step. A step's
	// selections run as one batch, a kernel pass per condition over the
	// rows no earlier condition took; the count is of rows selected, not
	// of passes. MonolithicOpts evaluates whole chains and selects none.
	ArmSelections uint64
	// CompileTime is the one-off cost of lowering the column constraints
	// before the solve loop, paid on a spec's first solve and near zero
	// once its compilation is cached. For incremental solves everything
	// compiles to selection-vector predicates: each rule-chain family's
	// Selector, one predicate per shared condition, each member's
	// distinct then and else branches, and every other constraint whole.
	// MonolithicOpts also compiles, and counts, every constraint whole as a
	// selection-vector predicate, on every MonolithicOpts solve.
	CompileTime time.Duration
	// StepStats holds one entry per column-extension step, in step order
	// (incremental solves only; MonolithicOpts tests complete assignments and
	// has no steps).
	StepStats []StepStat
}

// StepStat describes one column-extension step of an incremental solve:
// which column was added, how hard the step's constraint sweep worked and
// what survived it.
type StepStat struct {
	// Column is the column the step appended.
	Column string
	// Domain is the size of the column's domain.
	Domain int
	// Rows is the partial table's row count after the step's constraints
	// pruned.
	Rows int
	// Candidates is the number of partial assignments the step tested;
	// MemoHits counts the verdicts served by the projection memo.
	Candidates, MemoHits uint64
	// Elapsed is the step's wall time. Its domain is interned before the
	// step starts and is not counted.
	Elapsed time.Duration
}

// Options tunes the solvers.
type Options struct {
	// Workers bounds solve parallelism; 0 means GOMAXPROCS.
	Workers int
	// MonolithicLimit caps the assignment-space size MonolithicOpts will
	// enumerate; 0 means the default of 2^28.
	MonolithicLimit uint64
	// Tracer, when set, receives one span per solve carrying the Stats.
	Tracer obs.Tracer
	// Metrics, when set, accumulates coherdb_solver_candidates_total and
	// coherdb_solver_pruned_total counters labelled by controller, plus
	// coherdb_solver_memo_hits_total and the
	// coherdb_solver_compile_duration_seconds histogram.
	Metrics *obs.Registry
}

// observe reports a finished solve to the tracer span and metrics. The
// span's attributes are formatted only when the span is live.
func (o Options) observe(span *obs.Span, controller string, stats Stats, err error) {
	if span != nil {
		span.SetAttr(
			obs.Int("steps", stats.Steps),
			obs.Int("reused_steps", stats.ReusedSteps),
			obs.Uint64("candidates", stats.Candidates),
			obs.Uint64("pruned", stats.Pruned),
			obs.Uint64("memo_hits", stats.MemoHits),
			obs.Uint64("arm_selections", stats.ArmSelections),
			obs.Duration("compile_time", stats.CompileTime),
			obs.Int("rows", stats.Rows),
		)
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
	}
	span.Finish()
	if o.Metrics == nil {
		return
	}
	o.Metrics.Help("coherdb_solver_candidates_total", "Candidate assignments tested against constraints.")
	o.Metrics.Counter("coherdb_solver_candidates_total", obs.L("controller", controller)).Add(int64(stats.Candidates))
	o.Metrics.Help("coherdb_solver_pruned_total", "Candidate assignments rejected by a constraint.")
	o.Metrics.Counter("coherdb_solver_pruned_total", obs.L("controller", controller)).Add(int64(stats.Pruned))
	o.Metrics.Help("coherdb_solver_memo_hits_total", "Candidate verdicts served by the projection memo instead of evaluation.")
	o.Metrics.Counter("coherdb_solver_memo_hits_total", obs.L("controller", controller)).Add(int64(stats.MemoHits))
	o.Metrics.Help("coherdb_solver_compile_duration_seconds", "Time lowering column constraints into compiled kernels, per solve.")
	o.Metrics.Histogram("coherdb_solver_compile_duration_seconds", nil, obs.L("controller", controller)).ObserveDuration(stats.CompileTime)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) limit() uint64 {
	if o.MonolithicLimit > 0 {
		return o.MonolithicLimit
	}
	return 1 << 28
}

// Solve generates the controller table from the spec using the paper's
// incremental algorithm: starting from the empty relation, the column tables
// are cross-multiplied one at a time, and each column constraint is applied
// as soon as every column it references has been generated. Constraints
// prune partial assignments early, so the intermediate relations stay near
// the size of the final table.
func Solve(spec *Spec) (*rel.Table, Stats, error) {
	return SolveOpts(spec, Options{})
}

// SolveOpts is Solve with explicit options.
func SolveOpts(spec *Spec, opts Options) (_ *rel.Table, stats Stats, err error) {
	span := obs.StartSpan(opts.Tracer, "constraint.solve", obs.String("controller", spec.Name))
	defer func() { opts.observe(span, spec.Name, stats, err) }()

	// Lower every column constraint once into position-bound
	// selection-vector predicates (cached on the spec across solves). The
	// partial table's vectors are a prefix of the full column order, so
	// positions bound against the full spec stay valid at every step: a
	// constraint only fires once all its referenced positions exist —
	// exactly at the step its highest referenced column is added.
	t0 := time.Now()
	cc, err := spec.compiledConstraints()
	stats.CompileTime = time.Since(t0)
	if err != nil {
		return nil, stats, err
	}
	run := newSolveRun(spec, cc, opts.workers(), span, &stats)

	// cur is the partial table, column-major, starting from the empty
	// relation's one zero-column row; domains are interned once per step
	// and the whole solve runs on uint32 compares, its vectors landing
	// in the columnar result table as they are.
	cur := part{n: 1}
	for i, col := range spec.cols {
		if cur, err = run.step(cur, i, encodeDomain(col.Domain())); err != nil {
			return nil, stats, err
		}
		if cur.n == 0 {
			break // inconsistent constraints: empty table (paper §3)
		}
	}
	out, err := newResult(spec, cur)
	if err != nil {
		return nil, stats, err
	}
	stats.Rows = out.NumRows()
	return out, stats, nil
}

// newResult builds the result table of a solve whose last step left p:
// its rows when p covers every column, and no rows when the solve stopped
// early on an empty step.
func newResult(spec *Spec, p part) (*rel.Table, error) {
	out, err := rel.NewTable(spec.Name, spec.ColumnNames()...)
	if err != nil {
		return nil, err
	}
	if len(p.cols) == len(spec.cols) {
		if err := out.AppendColumns(p.cols, p.n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// solveRun is the state of one column-at-a-time solve (SolveOpts or
// IncrementalSolver.SolveSpec): the constraints firing at each step and
// the arm memo of every family that has fired. The memos belong to the
// solve, so concurrent solves of one spec share nothing mutable.
type solveRun struct {
	spec    *Spec
	fireAt  [][]compiledConstraint
	memos   map[*family]*armMemo // allocated at a family's first firing step
	workers int
	span    *obs.Span
	stats   *Stats
}

func newSolveRun(spec *Spec, cc []compiledConstraint, workers int, span *obs.Span, stats *Stats) solveRun {
	fireAt := make([][]compiledConstraint, len(spec.cols))
	for _, c := range cc {
		fireAt[c.fire] = append(fireAt[c.fire], c)
	}
	return solveRun{spec: spec, fireAt: fireAt, workers: workers, span: span, stats: stats}
}

// step appends column i to the partial table cur, sweeping domain (the
// column's interned domain, see encodeDomain), and records the step in
// the run's Stats and a constraint.step span. It is the loop body of both
// SolveOpts and IncrementalSolver.Solve.
func (r *solveRun) step(cur part, i int, domain []uint32) (part, error) {
	col := r.spec.cols[i]
	r.stats.Steps++
	t0 := time.Now()
	stepSpan := r.span.Child("constraint.step", obs.String("column", col.Name))
	defer stepSpan.Finish()

	// Constraints that become checkable at this step, and the union of
	// the row positions they read.
	fire := r.fireAt[i]
	var fireRefs []int
	seenRef := make([]bool, i+1)
	for _, c := range fire {
		for _, pos := range c.refs {
			if !seenRef[pos] {
				seenRef[pos] = true
				fireRefs = append(fireRefs, pos)
			}
		}
	}

	next, est, err := r.extend(cur, domain, fire, fireRefs)
	if err != nil {
		return part{}, err
	}
	r.stats.Candidates += est.tested
	r.stats.MemoHits += est.memoHits
	r.stats.Pruned += est.tested - uint64(next.n)
	r.stats.ArmSelections += est.selections
	r.stats.StepStats = append(r.stats.StepStats, StepStat{
		Column:     col.Name,
		Domain:     len(domain),
		Rows:       next.n,
		Candidates: est.tested,
		MemoHits:   est.memoHits,
		Elapsed:    time.Since(t0),
	})
	if stepSpan != nil {
		stepSpan.SetAttr(
			obs.Int("domain", len(domain)),
			obs.Int("rows", next.n),
			obs.Uint64("candidates", est.tested),
			obs.Uint64("memo_hits", est.memoHits),
		)
	}
	return next, nil
}

// arms returns the arm of every group at this step for each firing family
// member (zero for the other constraints), selecting through the family's
// memo; members of one family share one selection. cols are the partial
// table's vectors and reps the groups' representative rows.
func (r *solveRun) arms(cols [][]uint32, reps []uint32, fire []compiledConstraint) ([]groupArms, uint64) {
	var out []groupArms
	var selections uint64
	for i, c := range fire {
		if c.fam == nil {
			continue
		}
		if out == nil {
			out = make([]groupArms, len(fire))
		}
		if j := firstMember(fire[:i], c.fam); j >= 0 {
			out[i] = out[j]
			continue
		}
		var n uint64
		if c.fam.memo {
			m := r.memos[c.fam]
			if m == nil {
				if r.memos == nil {
					r.memos = make(map[*family]*armMemo)
				}
				m = &armMemo{keys: rel.NewCodeKeys(len(c.fam.cols), len(reps))}
				r.memos[c.fam] = m
			}
			out[i], n = m.selectArms(c.fam, cols, reps)
		} else {
			out[i], n = c.fam.selectGroups(cols, reps)
		}
		selections += n
	}
	return out, selections
}

// firstMember returns the index of fam's first member in fire, or -1.
func firstMember(fire []compiledConstraint, fam *family) int {
	for j, c := range fire {
		if c.fam == fam {
			return j
		}
	}
	return -1
}

// encodeDomain interns a column table into the shared dictionary once, so
// the solve loop sweeps codes instead of values.
func encodeDomain(vals []rel.Value) []uint32 {
	d := rel.SharedDict()
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = d.Code(v)
	}
	return out
}

// MonolithicOpts generates the controller table by enumerating the full
// cross product of the column tables and testing the complete conjunction
// of column constraints on each total assignment — no early pruning. This
// is the paper's slow baseline; its cost is the product of all domain
// sizes. It refuses to run when the space exceeds Options.MonolithicLimit.
func MonolithicOpts(spec *Spec, opts Options) (_ *rel.Table, stats Stats, err error) {
	span := obs.StartSpan(opts.Tracer, "constraint.monolithic", obs.String("controller", spec.Name))
	defer func() { opts.observe(span, spec.Name, stats, err) }()
	space := spec.SpaceSize()
	if space > opts.limit() {
		return nil, stats, fmt.Errorf("%w: %d > %d", ErrSpaceLimit, space, opts.limit())
	}
	names := spec.ColumnNames()
	domains := make([][]uint32, len(spec.cols))
	for i, c := range spec.cols {
		domains[i] = encodeDomain(c.Domain())
	}
	t0 := time.Now()
	preds, err := wholePreds(spec)
	stats.CompileTime = time.Since(t0)
	if err != nil {
		return nil, stats, err
	}

	// Work-stealing enumeration of the assignment space: an atomic cursor
	// deals index batches, so workers that land on quickly rejected
	// regions steal more instead of idling, and the split cannot drop
	// indexes however small the space is (the old static per-worker
	// division collapsed to empty ranges when space < workers). A worker
	// decodes its batch into column vectors monoLanes assignments at a
	// time, narrows the selection through each constraint's kernels, and
	// keeps the survivors column-major.
	workers := opts.workers()
	cursor := newBatchCursor(space, workers)
	nb := cursor.numBatches()
	if workers > nb {
		workers = nb
	}
	if workers < 1 {
		workers = 1
	}
	perBatch := make([]part, nb)
	tested := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lanes := make([][]uint32, len(names))
			for i := range lanes {
				lanes[i] = make([]uint32, monoLanes)
			}
			buf := make([]uint32, monoLanes)
			for {
				bi, lo, hi, ok := cursor.grab()
				if !ok {
					return
				}
				out := part{cols: make([][]uint32, len(names))}
				for base := lo; base < hi; base += monoLanes {
					n := int(min(hi-base, monoLanes))
					for k := 0; k < n; k++ {
						// Decode the index as a mixed-radix number over domains.
						rem := base + uint64(k)
						for i := len(domains) - 1; i >= 0; i-- {
							d := domains[i]
							lanes[i][k] = d[rem%uint64(len(d))]
							rem /= uint64(len(d))
						}
						buf[k] = uint32(k)
					}
					tested[w] += uint64(n)
					sel := buf[:n]
					for _, p := range preds {
						var err error
						if sel, err = p.EvalVec(lanes, sel); err != nil {
							errs[w] = err
							return
						}
						if len(sel) == 0 {
							break
						}
					}
					for i, col := range lanes {
						for _, k := range sel {
							out.cols[i] = append(out.cols[i], col[k])
						}
					}
					out.n += len(sel)
				}
				perBatch[bi] = out
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, stats, errs[w]
		}
		stats.Candidates += tested[w]
	}
	out, err := rel.NewTable(spec.Name, names...)
	if err != nil {
		return nil, stats, err
	}
	// Batches append in index order, so MonolithicOpts and Solve results
	// compare equal row for row.
	for _, b := range perBatch {
		if err := out.AppendColumns(b.cols, b.n); err != nil {
			return nil, stats, err
		}
	}
	stats.Rows = out.NumRows()
	stats.Pruned = stats.Candidates - uint64(stats.Rows)
	return out, stats, nil
}

// monoLanes is how many assignments MonolithicOpts decodes into column
// vectors for one kernel batch.
const monoLanes = 1024

// wholePreds compiles each of spec's constraints whole into one
// predicate over the spec's columns, which every MonolithicOpts worker
// shares. They are compiled on every call and independent of the families
// and sweep predicates Solve runs; the solver's constraint order (by fire
// step) only sets the order they are tested in, and its compile errors
// come first.
func wholePreds(spec *Spec) ([]*sqlmini.VecPred, error) {
	cc, err := spec.compiledConstraints()
	if err != nil {
		return nil, err
	}
	ev := spec.evaluator()
	preds := make([]*sqlmini.VecPred, len(cc))
	for i, c := range cc {
		if preds[i], err = ev.CompileVec(spec.constraints[c.col], spec.colIdx); err != nil {
			return nil, compileError(spec, c.col, err)
		}
	}
	return preds, nil
}
