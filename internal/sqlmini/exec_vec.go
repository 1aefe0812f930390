package sqlmini

import (
	"sync"

	"coherdb/internal/obs"
	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// Column-at-a-time scan execution. Every pushed conjunct of a source that
// compiles lowers to a VecPred, and the scan then skips row
// materialization entirely: a pooled selection vector starts as the scan
// domain (all row numbers, or the index lookup's matches), each kernel
// filters it in place over the table's zero-copy column vectors, and
// only the survivors are gathered into frame rows. Above the parallel
// threshold the selection is dealt in morsel batches — each batch
// compacts its own subrange in place, then the kept prefixes concatenate
// in batch order, so the parallel selection is byte-identical to the
// serial one. UPDATE and DELETE select their rows through the same
// vecFilter (see selectRows).
//
// Selection vectors and the per-evaluation kernel scratch are pooled
// (selPool here, VecPred.pool in vectorize.go), so the steady-state
// vectorized filter allocates nothing — see TestVectorizedFilterAllocs.

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

// colsVec is a pooled column-vector directory.
type colsVec struct{ c [][]uint32 }

var colsPool = sync.Pool{New: func() any { return new(colsVec) }}

// vecScan runs the vectorized pushed filter over t's column
// vectors and returns the frame of surviving rows. matched narrows the
// scan domain to the index lookup's row numbers; nil means the whole
// table.
func (r *run) vecScan(t *rel.Table, alias string, matched []int, vecs []*VecPred) (*frame, error) {
	f := schemaFrame(t, alias)
	n := t.NumRows()
	if matched != nil {
		n = len(matched)
	}
	sv := getSel(n)
	sel := sv.s[:n]
	if matched != nil {
		for i, ri := range matched {
			sel[i] = uint32(ri)
		}
	} else {
		for i := range sel {
			sel[i] = uint32(i)
		}
	}
	sel, err := r.vecFilter(t, sel, vecs)
	if err != nil {
		selPool.Put(sv)
		return nil, err
	}
	f.rows = gatherRows(t, sel)
	selPool.Put(sv)
	return f, nil
}

// vecFilter cascades the vectorized conjuncts over the selection,
// serially or in morsel batches, returning the surviving prefix of sel.
func (r *run) vecFilter(t *rel.Table, sel []uint32, vecs []*VecPred) ([]uint32, error) {
	r.qs.phase(obs.PhaseFilter)
	n := len(sel)
	ncols := t.NumCols()
	cv := colsPool.Get().(*colsVec)
	if cap(cv.c) < ncols {
		cv.c = make([][]uint32, ncols)
	}
	cols := cv.c[:ncols]
	for j := 0; j < ncols; j++ {
		cols[j] = t.ColCodes(j)
	}
	defer func() {
		for j := range cols {
			cols[j] = nil // do not pin table storage from the pool
		}
		colsPool.Put(cv)
	}()
	p, workers, morsel := r.parallel(n)
	if p == nil {
		var err error
		for _, vp := range vecs {
			sel, err = vp.EvalVec(cols, sel)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				break
			}
		}
		r.qs.addVec(1, n, len(sel))
		r.azVec(1, n, len(sel))
		return sel, nil
	}
	nb := pool.Batches(n, morsel)
	lens := make([]int, nb)
	st, err := p.Each(workers, n, morsel, func(batch, lo, hi int) error {
		part := sel[lo:hi]
		var err error
		for _, vp := range vecs {
			part, err = vp.EvalVec(cols, part)
			if err != nil {
				return err
			}
			if len(part) == 0 {
				break
			}
		}
		lens[batch] = len(part)
		return nil
	})
	r.qs.addParallel(st)
	if err != nil {
		return nil, err
	}
	// Concatenate the kept prefixes in batch order: batch b's survivors
	// start at b*morsel, and the write cursor can never pass that point,
	// so the in-place compaction is safe.
	w := 0
	for b := 0; b < nb; b++ {
		lo := b * morsel
		w += copy(sel[w:], sel[lo:lo+lens[b]])
	}
	r.qs.addVec(nb, n, w)
	r.azVec(nb, n, w)
	return sel[:w], nil
}
