package sqlmini

import (
	"time"

	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// Morsel-driven parallel execution. Each phase that walks a frame's rows —
// the scan and residue filter, an equi-join's probe, a nested loop's
// batches — has one body over a row range [lo, hi). A phase with fewer
// than two morsels of input calls it once over the whole range; a larger
// one deals contiguous batches from one atomic cursor on the DB's worker
// pool (work stealing), each batch producing into its own output, and the
// outputs concatenate in batch order. Because batch k always covers rows
// [k*morsel, (k+1)*morsel), the result is byte-identical to the serial
// one regardless of worker count or scheduling — the determinism
// guarantee the golden equivalence tests pin down. The bodies evaluate
// VecPreds and read column vectors, which are safe for concurrent use.
//
// A join's output is left-major: the left rows in order, each followed by
// its matching right rows in the right frame's order. Its batches collect
// the matched vector positions, and one gather builds the output frame's
// columns. All traffic is dictionary codes: join keys are 4 bytes per
// column, and no rel.Value is boxed.

// morsels runs one phase's body over the rows [0, n): in a single call
// when the phase stays serial (see run.parallel), otherwise once per
// morsel batch on the pool. It returns the outputs in batch order.
func morsels[T any](r *run, n int, body func(lo, hi int) (T, error)) ([]T, error) {
	p, workers, morsel := r.parallel(n)
	if p == nil {
		out, err := body(0, n)
		return []T{out}, err
	}
	outs := make([]T, pool.Batches(n, morsel))
	st, err := p.Each(workers, n, morsel, func(batch, lo, hi int) error {
		var err error
		outs[batch], err = body(lo, hi)
		return err
	})
	r.qs.addParallel(st)
	return outs, err
}

// matches is one batch of a join's output: the vector positions of each
// matched pair's left and right rows, left-major.
type matches struct{ l, r []uint32 }

// joined gathers a join's output frame: f's columns at the matched left
// positions, then g's at the right ones, over the batches in order.
func (r *run) joined(f, g *frame, parts []matches) *frame {
	n := 0
	for _, m := range parts {
		n += len(m.l)
	}
	width := len(f.cols) + len(g.cols)
	out := &frame{cols: make([][]uint32, 0, width), n: n}
	flat := make([]uint32, n*width)
	for side, cols := range [2][][]uint32{f.cols, g.cols} {
		for _, src := range cols {
			c := len(out.cols)
			col, k := flat[c*n:(c+1)*n:(c+1)*n], 0
			for _, m := range parts {
				idx := m.l
				if side == 1 {
					idx = m.r
				}
				for _, i := range idx {
					col[k] = src[i]
					k++
				}
			}
			out.cols = append(out.cols, col)
		}
	}
	r.azArena(int64(len(flat)) * 4)
	return out
}

// loopJoin pairs each row of f, in order, with the rows of g that on
// keeps, in g's order — every row of g when on is nil: the cross product.
// Each left row is one kernel batch whose lanes are g's rows: g's vectors
// serve as they are, and each left column on reads (left) repeats the
// row's code across the lanes, as the constraint solver repeats a group's
// codes across its domain sweep. Like a row loop, it evaluates nothing
// when g has no rows.
func (r *run) loopJoin(f, g *frame, on *VecPred, left []int) (*frame, error) {
	lanes := g.rows()
	parts, err := morsels(r, f.len(), func(lo, hi int) (matches, error) {
		var m matches
		if len(lanes) == 0 {
			return m, nil
		}
		cols := make([][]uint32, len(f.cols)+len(g.cols))
		copy(cols[len(f.cols):], g.cols)
		for _, p := range left {
			cols[p] = make([]uint32, g.n)
		}
		sel := make([]uint32, len(lanes))
		for k := lo; k < hi; k++ {
			i := f.row(k)
			kept := lanes
			if on != nil {
				for _, p := range left {
					col, c := cols[p], f.cols[p][i]
					for _, j := range lanes {
						col[j] = c
					}
				}
				var err error
				if kept, err = on.EvalVec(cols, append(sel[:0], lanes...)); err != nil {
					return m, err
				}
			}
			for _, j := range kept {
				m.l = append(m.l, i)
				m.r = append(m.r, j)
			}
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return r.joined(f, g, parts), nil
}

// keyCodes loads the join key of the row at vector position i — the left
// or right column of each pair — into codes. It reports false when a key
// code is NULL under ANSI NULLs, where a NULL key never matches; in the
// constraint dialect NULL is an ordinary value that matches NULL.
func keyCodes(codes []uint32, cols [][]uint32, i uint32, pairs []joinPair, left, nullEq bool) bool {
	for k, p := range pairs {
		j := p.ri
		if left {
			j = p.li
		}
		c := cols[j][i]
		if c == rel.NullCode && !nullEq {
			return false
		}
		codes[k] = c
	}
	return true
}

// probe pairs each row of f, in order, with the rows lookup returns for its
// join key: vector positions of g, ascending.
func (r *run) probe(f, g *frame, pairs []joinPair, lookup func(codes []uint32) []int) (*frame, error) {
	nullEq := r.ev.NullEq
	parts, err := morsels(r, f.len(), func(lo, hi int) (matches, error) {
		var m matches
		codes := make([]uint32, len(pairs))
		for k := lo; k < hi; k++ {
			i := f.row(k)
			if !keyCodes(codes, f.cols, i, pairs, true, nullEq) {
				continue
			}
			for _, j := range lookup(codes) {
				m.l = append(m.l, i)
				m.r = append(m.r, uint32(j))
			}
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return r.joined(f, g, parts), nil
}

// hashTable is the build side of an equi-join without a persistent
// index: each key of the right frame's rows, as 4-byte code words like
// rel.Index's, names a bucket of the right vector positions holding it,
// ascending.
type hashTable struct {
	keys    map[string]int
	buckets [][]int
}

// hashJoin builds a hash table over g's keys in one serial pass, in g's
// row order, and probes it with f's rows.
func (r *run) hashJoin(f, g *frame, pairs []joinPair) (*frame, error) {
	var t0 time.Time
	if r.azTracks() {
		t0 = time.Now()
	}
	ht := &hashTable{keys: make(map[string]int)}
	codes := make([]uint32, len(pairs))
	var kb []byte
	for k := 0; k < g.len(); k++ {
		j := g.row(k)
		if !keyCodes(codes, g.cols, j, pairs, false, r.ev.NullEq) {
			continue
		}
		kb = appendKey(kb[:0], codes)
		b, ok := ht.keys[string(kb)]
		if !ok {
			b = len(ht.buckets)
			ht.keys[string(kb)] = b
			ht.buckets = append(ht.buckets, nil)
		}
		ht.buckets[b] = append(ht.buckets[b], int(j))
	}
	var t1 time.Time
	if r.azTracks() {
		t1 = time.Now()
	}
	out, err := r.probe(f, g, pairs, ht.lookup)
	if r.azTracks() {
		r.azBuildProbe(t1.Sub(t0), time.Since(t1))
	}
	return out, err
}

// lookup returns the bucket of a join key, or nil.
func (h *hashTable) lookup(codes []uint32) []int {
	var a [16]byte
	if b, ok := h.keys[string(appendKey(a[:0], codes))]; ok {
		return h.buckets[b]
	}
	return nil
}

// appendKey appends the injective key of a code sequence: 4 bytes per
// code, no separators needed because codes are fixed width.
func appendKey(buf []byte, codes []uint32) []byte {
	for _, c := range codes {
		buf = rel.AppendCodeKey(buf, c)
	}
	return buf
}
