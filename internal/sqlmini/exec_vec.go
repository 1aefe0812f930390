package sqlmini

import (
	"sync"

	"coherdb/internal/obs"
)

// Column-at-a-time filtering. Every predicate a statement evaluates over
// its rows — a scan's pushed conjuncts, a post-join residue, HAVING over
// the group frame, and UPDATE/DELETE's WHERE (see selectRows) — lowers to
// VecPreds, and narrow runs them over a frame's column vectors: the
// selection vector starts as the frame's rows (every row, or the index
// lookup's matches), and each kernel filters it in place. No row is
// materialized. Above the parallel threshold the selection is dealt in
// morsel batches — each batch compacts its own subrange in place, then the
// kept prefixes concatenate in batch order, so the parallel selection is
// byte-identical to the serial one.
//
// A whole-table frame's identity selection is pooled (selPool), and so is
// the per-evaluation kernel scratch (VecPred.pool in vectorize.go): the
// frame keeps only an exactly sized copy of the survivors.

// selVec is a pooled selection-vector buffer.
type selVec struct{ s []uint32 }

var selPool = sync.Pool{New: func() any { return new(selVec) }}

// getSel checks a buffer with room for n entries out of the pool.
func getSel(n int) *selVec {
	sv := selPool.Get().(*selVec)
	if cap(sv.s) < n {
		sv.s = make([]uint32, n)
	}
	return sv
}

// narrow keeps the rows of f that every conjunct keeps. A frame with a
// selection narrows it in place. One without runs the cascade on a pooled
// identity selection and keeps an exactly sized copy of the survivors, or
// no selection when every row survives.
func (r *run) narrow(f *frame, vecs []*VecPred) error {
	if f.sel != nil {
		sel, err := r.vecFilter(f.cols, f.sel, vecs)
		if err != nil {
			return err
		}
		f.sel = sel
		return nil
	}
	sv := getSel(f.n)
	defer selPool.Put(sv)
	kept, err := r.vecFilter(f.cols, identity(sv.s[:f.n]), vecs)
	if err != nil {
		return err
	}
	if len(kept) < f.n {
		f.sel = append(make([]uint32, 0, len(kept)), kept...)
	}
	return nil
}

// vecFilter cascades the vectorized conjuncts over sel, strictly
// increasing positions into the column vectors cols, serially or in
// morsel batches, and returns the surviving prefix of sel.
func (r *run) vecFilter(cols [][]uint32, sel []uint32, vecs []*VecPred) ([]uint32, error) {
	r.qs.phase(obs.PhaseFilter)
	n := len(sel)
	parts, err := morsels(r, n, func(lo, hi int) ([]uint32, error) {
		part := sel[lo:hi]
		for _, vp := range vecs {
			var err error
			if part, err = vp.EvalVec(cols, part); err != nil {
				return nil, err
			}
			if len(part) == 0 {
				break
			}
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}
	// Concatenate the kept prefixes in batch order: a batch's survivors
	// start at its own lo, which the write cursor never passes, so the
	// in-place compaction is safe.
	w := 0
	for _, part := range parts {
		w += copy(sel[w:], part)
	}
	r.qs.addVec(len(parts), n, w)
	r.azVec(len(parts), n, w)
	return sel[:w], nil
}
