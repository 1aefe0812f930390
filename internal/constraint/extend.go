package constraint

import (
	"slices"
	"sync"
)

// part is the partial table of a column-at-a-time solve, column-major: one
// dictionary-code vector per generated column, in spec order, each n long.
// The solver never boxes a rel.Value between the domain encoding and the
// final table. A step appends one vector, and a vector is never written
// after its step, so a later step and IncrementalSolver's memo share it.
type part struct {
	cols [][]uint32
	n    int
}

// extendStats reports one extension step's work.
type extendStats struct {
	tested     uint64 // candidate (row, value) pairs decided
	memoHits   uint64 // pairs decided from the projection memo
	selections uint64 // first-match selections evaluated
}

// extend extends every row of cur with every code in domain, keeping the
// extensions on which all fire predicates hold. Output rows preserve input
// order: row i's surviving extensions precede row i+1's, in domain order.
//
// The firing constraints only read the columns in refs (positions into the
// extended row; the new column is position len(cur.cols)). Their verdict
// for a candidate therefore depends only on the row's projection onto the
// old referenced columns plus the appended domain value, so rows are
// grouped by that projection, read from the column vectors as codes, and
// each distinct (projection, value) pair is evaluated once. The readex
// fragment has thousands of intermediate rows but only dozens of distinct
// projections; work drops from O(rows x domain) evaluations to
// O(groups x domain). A group's pairs are one batch for the same
// selection-vector kernels that filter SQL scans (see evalGroups).
//
// A firing family member evaluates only the branch of its group's arm,
// which the family's selector picks before the sweep, in one kernel batch
// over the groups whose arm the solve has not yet selected (see
// solveRun.arms).
func (r *solveRun) extend(cur part, domain []uint32, fire []compiledConstraint, refs []int) (part, extendStats, error) {
	var st extendStats
	if cur.n == 0 || len(domain) == 0 {
		return part{}, st, nil
	}
	dlen := len(domain)
	st.tested = uint64(cur.n) * uint64(dlen)
	groupOf := make([]int32, cur.n)

	if len(fire) == 0 {
		// Nothing to check: all rows form one group that keeps the whole
		// domain, a pure cross product.
		verdicts := make([]bool, dlen)
		for i := range verdicts {
			verdicts[i] = true
		}
		return emit(cur, domain, groupOf, verdicts), st, nil
	}

	// Group rows by their projection onto the referenced old columns. The
	// new column contributes the domain sweep instead.
	old := len(cur.cols)
	oldRefs := refs[:0:0]
	for _, p := range refs {
		if p < old {
			oldRefs = append(oldRefs, p)
		}
	}
	var reps []uint32 // representative row per group, ascending
	if len(oldRefs) == old {
		// The projection keeps every old column, and cur's rows are
		// distinct by construction (distinct extensions of distinct rows),
		// so every row is its own group: skip the key table.
		reps = make([]uint32, cur.n)
		for i := range reps {
			groupOf[i] = int32(i)
			reps[i] = uint32(i)
		}
	} else {
		keys := newCodeKeys(oldRefs, cur.n)
		reps = make([]uint32, 0, cur.n)
		for i := range groupOf {
			g := keys.intern(cur.cols, i)
			if int(g) == len(reps) {
				reps = append(reps, uint32(i))
			}
			groupOf[i] = g
		}
	}
	st.memoHits = uint64(cur.n-len(reps)) * uint64(dlen)

	// Evaluate each distinct (projection, value) pair once, in parallel.
	arms, selections := r.arms(cur.cols, reps, fire)
	st.selections = selections
	verdicts := make([]bool, len(reps)*dlen)
	if err := evalGroups(cur, domain, fire, reps, arms, verdicts, r.workers); err != nil {
		return part{}, st, err
	}
	return emit(cur, domain, groupOf, verdicts), st, nil
}

// emit builds the step's output part from the verdict table, in one pass
// over the rows: verdicts[g*len(domain)+di] says whether group g keeps
// domain[di], and row i is in group groupOf[i]. When every row keeps
// exactly one value the output shares cur's vectors as they are and adds
// the new one; otherwise each old vector is gathered once through the
// output rows' parent rows.
func emit(cur part, domain []uint32, groupOf []int32, verdicts []bool) part {
	dlen := len(domain)
	ng := len(verdicts) / dlen
	keeps := make([]int32, ng) // survivors per group
	only := make([]uint32, ng) // a group's last survivor
	one := true
	for g := range keeps {
		for di, pass := range verdicts[g*dlen : (g+1)*dlen] {
			if pass {
				keeps[g]++
				only[g] = domain[di]
			}
		}
		one = one && keeps[g] == 1
	}
	if one {
		col := make([]uint32, cur.n)
		for i, g := range groupOf {
			col[i] = only[g]
		}
		return part{cols: append(slices.Clip(cur.cols), col), n: cur.n}
	}
	total := 0
	for _, g := range groupOf {
		total += int(keeps[g])
	}
	if total == 0 {
		return part{}
	}
	parent := make([]int32, 0, total)
	col := make([]uint32, 0, total)
	for i, g := range groupOf {
		if keeps[g] == 0 {
			continue
		}
		for di, pass := range verdicts[int(g)*dlen : (int(g)+1)*dlen] {
			if pass {
				parent = append(parent, int32(i))
				col = append(col, domain[di])
			}
		}
	}
	cols := make([][]uint32, len(cur.cols)+1)
	buf := make([]uint32, len(cur.cols)*total)
	for j, v := range cur.cols {
		out := buf[j*total : (j+1)*total : (j+1)*total]
		for k, p := range parent {
			out[k] = v[p]
		}
		cols[j] = out
	}
	cols[len(cur.cols)] = col
	return part{cols: cols, n: total}
}

// sweepSmallJob is the work volume below which a step runs inline on the
// calling goroutine: dealing single-group batches through the cursor to
// a spawned worker set costs more than the evaluations themselves. The
// Figure 3 fragment micro-solves (BenchmarkGenerateIncremental) sit
// entirely below this; see BENCH_8.json for the tuning.
const sweepSmallJob = 4096

// evalGroups fills verdicts[g*len(domain)+di] for every group g and domain
// index di by running the fire predicates on the group's representative
// row extended with domain[di]. A group's lanes are one batch for the
// selection-vector kernels (sqlmini.VecPred): the new column's vector is
// the domain, every old column the fire predicates read holds the
// representative's code in every lane, and the selection starts as every
// lane. Each firing constraint narrows it, stopping when it is empty, and
// the survivors are the group's verdicts. A family member runs only the
// branch its group's arm (arms[i]) names.
func evalGroups(cur part, domain []uint32, fire []compiledConstraint, reps []uint32, arms []groupArms, verdicts []bool, workers int) error {
	s := groupSweep{cur: cur.cols, domain: domain, fire: fire, reps: reps, arms: arms, verdicts: verdicts}
	for _, c := range fire {
		for _, vp := range c.sweep {
			for _, p := range vp.Columns() {
				if p < len(cur.cols) && !slices.Contains(s.bcast, p) {
					s.bcast = append(s.bcast, p)
				}
			}
		}
	}
	if workers <= 1 || len(reps)*len(domain) < sweepSmallJob {
		// Small-step fast path: sweep inline on the calling goroutine.
		return s.run(s.worker(), 0, len(reps))
	}
	return s.parallel(workers)
}

// groupSweep is one step's verdict computation for evalGroups.
type groupSweep struct {
	cur      [][]uint32 // the old column vectors
	domain   []uint32
	fire     []compiledConstraint
	bcast    []int // the old columns the fire predicates read
	reps     []uint32
	arms     []groupArms
	verdicts []bool
}

// sweepWorker is one goroutine's batch: the column vectors by row
// position (the broadcast ones are its own, refilled per group) and the
// selection vector.
type sweepWorker struct {
	cols [][]uint32
	sel  []uint32
}

func (s *groupSweep) worker() sweepWorker {
	dlen := len(s.domain)
	w := sweepWorker{cols: make([][]uint32, len(s.cur)+1), sel: make([]uint32, dlen)}
	buf := make([]uint32, len(s.bcast)*dlen)
	for i, p := range s.bcast {
		w.cols[p] = buf[i*dlen : (i+1)*dlen]
	}
	w.cols[len(s.cur)] = s.domain
	return w
}

// run decides groups [lo, hi).
func (s *groupSweep) run(w sweepWorker, lo, hi int) error {
	dlen := len(s.domain)
	for g := lo; g < hi; g++ {
		rep := s.reps[g]
		for _, p := range s.bcast {
			col, c := w.cols[p], s.cur[p][rep]
			for i := range col {
				col[i] = c
			}
		}
		sel := w.sel
		for i := range sel {
			sel[i] = uint32(i)
		}
		for i, cc := range s.fire {
			branch := 0
			if s.arms != nil && s.arms[i].arm != nil {
				arm := s.arms[i].arm[g]
				if arm < 0 {
					return s.arms[i].errs[-1-arm]
				}
				branch = int(cc.branch[arm])
			}
			var err error
			if sel, err = cc.sweep[branch].EvalVec(w.cols, sel); err != nil {
				return err
			}
			if len(sel) == 0 {
				break
			}
		}
		v := s.verdicts[g*dlen : (g+1)*dlen]
		for _, di := range sel {
			v[di] = true
		}
	}
	return nil
}

// parallel runs the sweep on up to workers goroutines, dealing groups in
// batches. It takes s by value so the inline path keeps s on its stack.
func (s groupSweep) parallel(workers int) error {
	cursor := newBatchCursor(uint64(len(s.reps)), workers)
	nw := min(workers, cursor.numBatches())
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.worker()
			for {
				_, lo, hi, ok := cursor.grab()
				if !ok {
					return
				}
				if err := s.run(w, int(lo), int(hi)); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
