package constraint

import (
	"slices"
	"sync"

	"coherdb/internal/rel"
)

// extendStats reports one extension step's work.
type extendStats struct {
	tested     uint64 // candidate (row, value) pairs decided
	memoHits   uint64 // pairs decided from the projection memo
	selections uint64 // first-match selections evaluated
}

// extend extends every row in cur (width-1 codes each) with every
// code in domain, keeping extensions on which all fire predicates hold.
// Rows are dictionary-code rows throughout — the solver never boxes a
// rel.Value between the domain encoding and the final table. Output rows
// preserve input order: row i's surviving extensions precede row i+1's,
// in domain order — the same order the sequential loop would produce.
//
// The firing constraints only read the columns in refs (positions into the
// extended row; the new column is position width-1). Their verdict for a
// candidate therefore depends only on the row's projection onto the old
// referenced columns plus the appended domain value — so rows are grouped
// by that projection and each distinct (projection, value) pair is
// evaluated once. The readex fragment has thousands of intermediate rows
// but only dozens of distinct projections; work drops from
// O(rows x domain) evaluations to O(groups x domain). A group's pairs are
// one batch for the same selection-vector kernels that filter SQL scans
// (see evalGroups).
//
// A firing family member evaluates only the branch of its group's arm,
// which the family's selector picks before the sweep, once per solve for
// each row (see solveRun.arms).
func (r *solveRun) extend(cur [][]uint32, width int, domain []uint32, fire []compiledConstraint, refs []int) ([][]uint32, extendStats, error) {
	var st extendStats
	workers := r.workers
	if len(cur) == 0 || len(domain) == 0 {
		return nil, st, nil
	}
	dlen := len(domain)
	st.tested = uint64(len(cur)) * uint64(dlen)

	if len(fire) == 0 {
		// Nothing to check: pure cross product.
		next := crossExtend(cur, width, domain, workers)
		return next, st, nil
	}

	// Group rows by their projection onto the referenced old columns. The
	// new column (position width-1) contributes the domain sweep instead.
	oldRefs := refs[:0:0]
	for _, p := range refs {
		if p < width-1 {
			oldRefs = append(oldRefs, p)
		}
	}
	groupOf := make([]int32, len(cur))
	var reps []int32 // representative row per group
	if len(oldRefs) == width-1 {
		// The projection keeps every old column, and cur rows are distinct
		// by construction (distinct extensions of distinct rows), so every
		// row is its own group: skip the key table.
		reps = make([]int32, len(cur))
		for i := range cur {
			groupOf[i] = int32(i)
			reps[i] = int32(i)
		}
	} else {
		keys := newGroupTable(len(cur) / 4)
		var kb []byte
		for i, row := range cur {
			kb = kb[:0]
			for _, p := range oldRefs {
				// 4 bytes per code, no separators: fixed-width and injective.
				kb = rel.AppendCodeKey(kb, row[p])
			}
			g := keys.intern(kb)
			if int(g) == len(reps) {
				reps = append(reps, int32(i))
			}
			groupOf[i] = g
		}
	}
	st.memoHits = uint64(len(cur)-len(reps)) * uint64(dlen)

	// Evaluate each distinct (projection, value) pair once, in parallel.
	arms, selections := r.arms(cur, reps, fire)
	st.selections = selections
	verdicts := make([]bool, len(reps)*dlen)
	if err := evalGroups(cur, width, domain, fire, reps, arms, verdicts, workers); err != nil {
		return nil, st, err
	}

	// Emit surviving extensions, work-stealing over row batches and
	// reassembling in batch order for determinism.
	next := emitExtensions(cur, width, domain, groupOf, verdicts, workers)
	return next, st, nil
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
func evalGroups(cur [][]uint32, width int, domain []uint32, fire []compiledConstraint, reps []int32, arms []groupArms, verdicts []bool, workers int) error {
	s := groupSweep{cur: cur, width: width, domain: domain, fire: fire, reps: reps, arms: arms, verdicts: verdicts}
	for _, c := range fire {
		for _, vp := range c.sweep {
			for _, p := range vp.Columns() {
				if p < width-1 && !slices.Contains(s.bcast, p) {
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
	cur      [][]uint32
	width    int
	domain   []uint32
	fire     []compiledConstraint
	bcast    []int // the old columns the fire predicates read
	reps     []int32
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
	w := sweepWorker{cols: make([][]uint32, s.width), sel: make([]uint32, dlen)}
	buf := make([]uint32, len(s.bcast)*dlen)
	for i, p := range s.bcast {
		w.cols[p] = buf[i*dlen : (i+1)*dlen]
	}
	w.cols[s.width-1] = s.domain
	return w
}

// run decides groups [lo, hi).
func (s *groupSweep) run(w sweepWorker, lo, hi int) error {
	dlen := len(s.domain)
	for g := lo; g < hi; g++ {
		rep := s.cur[s.reps[g]]
		for _, p := range s.bcast {
			col, c := w.cols[p], rep[p]
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

// emitExtensions materializes the surviving extensions from the verdict
// table. Rows come from per-worker arenas (one chunk allocation per ~2000
// code rows instead of one per row); batches reassemble in index order.
func emitExtensions(cur [][]uint32, width int, domain []uint32, groupOf []int32, verdicts []bool, workers int) [][]uint32 {
	dlen := len(domain)
	if workers <= 1 || len(cur)*dlen < sweepSmallJob {
		// Micro-step fast path: emit inline, same index order as the
		// batched reassembly below.
		cnt := 0
		for i := range cur {
			base := int(groupOf[i]) * dlen
			for _, pass := range verdicts[base : base+dlen] {
				if pass {
					cnt++
				}
			}
		}
		if cnt == 0 {
			return nil
		}
		var arena codeArena
		arena.reserve(cnt * width)
		out := make([][]uint32, 0, cnt)
		for i, row := range cur {
			base := int(groupOf[i]) * dlen
			for di, pass := range verdicts[base : base+dlen] {
				if !pass {
					continue
				}
				nr := arena.row(width)
				copy(nr, row)
				nr[width-1] = domain[di]
				out = append(out, nr)
			}
		}
		return out
	}
	cursor := newBatchCursor(uint64(len(cur)), workers)
	nb := cursor.numBatches()
	nw := workers
	if nw > nb {
		nw = nb
	}
	perBatch := make([][][]uint32, nb)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena codeArena
			for {
				idx, lo, hi, ok := cursor.grab()
				if !ok {
					return
				}
				// Count survivors first so the batch's rows come from one
				// exactly-sized chunk and one output slice.
				cnt := 0
				for i := lo; i < hi; i++ {
					base := int(groupOf[i]) * dlen
					for _, pass := range verdicts[base : base+dlen] {
						if pass {
							cnt++
						}
					}
				}
				if cnt == 0 {
					continue
				}
				arena.reserve(cnt * width)
				out := make([][]uint32, 0, cnt)
				for i := lo; i < hi; i++ {
					row := cur[i]
					base := int(groupOf[i]) * dlen
					for di, pass := range verdicts[base : base+dlen] {
						if !pass {
							continue
						}
						nr := arena.row(width)
						copy(nr, row)
						nr[width-1] = domain[di]
						out = append(out, nr)
					}
				}
				perBatch[idx] = out
			}
		}()
	}
	wg.Wait()
	return flattenBatches(perBatch)
}

// crossExtend is the unconstrained fast path: every extension survives.
func crossExtend(cur [][]uint32, width int, domain []uint32, workers int) [][]uint32 {
	dlen := len(domain)
	if workers <= 1 || len(cur)*dlen < sweepSmallJob {
		var arena codeArena
		arena.reserve(len(cur) * dlen * width)
		out := make([][]uint32, 0, len(cur)*dlen)
		for _, row := range cur {
			for _, c := range domain {
				nr := arena.row(width)
				copy(nr, row)
				nr[width-1] = c
				out = append(out, nr)
			}
		}
		return out
	}
	cursor := newBatchCursor(uint64(len(cur)), workers)
	nb := cursor.numBatches()
	nw := workers
	if nw > nb {
		nw = nb
	}
	perBatch := make([][][]uint32, nb)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena codeArena
			for {
				idx, lo, hi, ok := cursor.grab()
				if !ok {
					return
				}
				arena.reserve(int(hi-lo) * dlen * width)
				out := make([][]uint32, 0, (hi-lo)*uint64(dlen))
				for i := lo; i < hi; i++ {
					row := cur[i]
					for _, c := range domain {
						nr := arena.row(width)
						copy(nr, row)
						nr[width-1] = c
						out = append(out, nr)
					}
				}
				perBatch[idx] = out
			}
		}()
	}
	wg.Wait()
	return flattenBatches(perBatch)
}

// flattenBatches concatenates per-batch row slices in batch order.
func flattenBatches(perBatch [][][]uint32) [][]uint32 {
	total := 0
	for _, b := range perBatch {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([][]uint32, 0, total)
	for _, b := range perBatch {
		out = append(out, b...)
	}
	return out
}
