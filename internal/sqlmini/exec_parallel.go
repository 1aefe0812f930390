package sqlmini

import (
	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// Morsel-driven parallel execution. Filter scans and hash-join phases that
// have at least two morsels of input run on the DB's worker pool: rows are
// dealt in contiguous batches from one atomic cursor (work stealing), each
// batch produces into its own buffer, and buffers merge in batch order.
// Because batch k always covers rows [k*morsel, (k+1)*morsel), the merged
// output is byte-identical to the serial scan regardless of worker count
// or scheduling — the determinism guarantee the golden equivalence tests
// pin down. Parallel phases evaluate compiled predicates (CodePred),
// which are safe for concurrent use.
//
// All row traffic here is dictionary codes: join keys are 4 bytes per
// column, partition selection hashes those bytes, and no rel.Value is
// boxed anywhere on the parallel path.

// codeArena carves code rows out of geometrically grown blocks, so
// emitting joined rows costs one allocation per block rather than one per
// row. The zero value is ready to use; arenas are not safe for concurrent
// use (parallel batches each carve from their own).
type codeArena struct {
	block []uint32
	off   int
	// grown counts the bytes of fresh blocks allocated, for EXPLAIN
	// ANALYZE's arena_bytes annotation.
	grown int64
}

const arenaMinBlock = 2048

// next carves an n-code row with capacity clamped to n, so appending to
// the returned slice can never bleed into the next row.
func (a *codeArena) next(n int) []uint32 {
	if n == 0 {
		return nil
	}
	if a.off+n > len(a.block) {
		size := 2 * len(a.block)
		if size < arenaMinBlock {
			size = arenaMinBlock
		}
		if size < n {
			size = n
		}
		a.block = make([]uint32, size)
		a.off = 0
		a.grown += int64(size) * 4
	}
	out := a.block[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

// undo returns the most recent next(n) carve to the arena, for callers
// that build a candidate row and then discard it.
func (a *codeArena) undo(n int) { a.off -= n }

// joinRow carves one row holding l followed by r.
func (a *codeArena) joinRow(l, r []uint32) []uint32 {
	row := a.next(len(l) + len(r))
	copy(row, l)
	copy(row[len(l):], r)
	return row
}

// evalPreds evaluates compiled conjuncts over one code row with WHERE
// short-circuiting: the first false or erroring conjunct decides.
func evalPreds(progs []CodePred, crow []uint32) (bool, error) {
	for _, p := range progs {
		ok, err := p(crow)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// mergeParts concatenates per-morsel row buffers in batch order — the
// stable merge that keeps parallel output identical to the serial scan.
func mergeParts(parts [][][]uint32) [][]uint32 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([][]uint32, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// parallelFilter runs the compiled filter over morsels of rows on the
// pool. ran reports whether the parallel path was taken; when it is false
// the caller falls back to the serial scan.
func (r *run) parallelFilter(rows [][]uint32, progs []CodePred) (kept [][]uint32, ran bool, err error) {
	p, workers, morsel := r.parallel(len(rows))
	if p == nil {
		return nil, false, nil
	}
	parts := make([][][]uint32, pool.Batches(len(rows), morsel))
	st, err := p.Each(workers, len(rows), morsel, func(batch, lo, hi int) error {
		part := make([][]uint32, 0, hi-lo)
		for _, row := range rows[lo:hi] {
			keep, err := evalPreds(progs, row)
			if err != nil {
				return err
			}
			if keep {
				part = append(part, row)
			}
		}
		parts[batch] = part
		return nil
	})
	r.qs.addParallel(st)
	if err != nil {
		return nil, true, err
	}
	return mergeParts(parts), true, nil
}

// bucket is one hash-table entry: the build-side row numbers sharing a
// join key, in input order. Buckets are pointers so probing and appending
// never re-hash the key string.
type bucket struct {
	rows []int
}

// hashTable is a (possibly partitioned) join hash table: a key's bucket
// lives in the partition selected by the key's hash, so partitions can be
// assembled by independent workers and probed without coordination.
type hashTable struct {
	parts []map[string]*bucket
}

// lookup returns the bucket for the encoded key, or nil. The
// string(key) conversions compile to allocation-free map probes.
func (h *hashTable) lookup(key []byte) *bucket {
	if len(h.parts) == 1 {
		return h.parts[0][string(key)]
	}
	return h.parts[rel.HashBytes(key)%uint64(len(h.parts))][string(key)]
}

// appendRowKey appends the injective join-key encoding of the row's key
// columns (the left or right half of each pair): 4 bytes per code, no
// separators needed because codes are fixed width. ok is false when any
// key column is NULL and nullEq is off: under ANSI NULLs a NULL key never
// matches, while the constraint dialect's NULL is an ordinary value that
// matches NULL.
func appendRowKey(buf []byte, crow []uint32, pairs []joinPair, left, nullEq bool) ([]byte, bool) {
	for _, p := range pairs {
		i := p.ri
		if left {
			i = p.li
		}
		c := crow[i]
		if c == rel.NullCode && !nullEq {
			return buf, false
		}
		buf = rel.AppendCodeKey(buf, c)
	}
	return buf, true
}

// buildHashTable builds the join hash table over the build-side rows.
// Large builds run partitioned on the pool: morsels of rows are keyed and
// staged into per-batch partition lists, then one worker per partition
// assembles its map, walking the batches in order so every bucket's row
// list matches a serial build's exactly.
func (r *run) buildHashTable(rows [][]uint32, pairs []joinPair, left bool) *hashTable {
	p, workers, morsel := r.parallel(len(rows))
	if p == nil {
		m := make(map[string]*bucket, len(rows))
		var buf []byte
		for i, row := range rows {
			b, ok := appendRowKey(buf[:0], row, pairs, left, r.ev.NullEq)
			buf = b
			if !ok {
				continue
			}
			if bk, have := m[string(buf)]; have {
				bk.rows = append(bk.rows, i)
			} else {
				m[string(buf)] = &bucket{rows: []int{i}}
			}
		}
		return &hashTable{parts: []map[string]*bucket{m}}
	}
	type keyed struct {
		idx int
		key string
	}
	nparts := workers
	staged := make([][][]keyed, pool.Batches(len(rows), morsel))
	st, _ := p.Each(workers, len(rows), morsel, func(batch, lo, hi int) error {
		parts := make([][]keyed, nparts)
		var buf []byte
		for i := lo; i < hi; i++ {
			b, ok := appendRowKey(buf[:0], rows[i], pairs, left, r.ev.NullEq)
			buf = b
			if !ok {
				continue
			}
			pi := int(rel.HashBytes(buf) % uint64(nparts))
			parts[pi] = append(parts[pi], keyed{idx: i, key: string(buf)})
		}
		staged[batch] = parts
		return nil
	})
	r.qs.addParallel(st)
	tables := make([]map[string]*bucket, nparts)
	st, _ = p.Each(workers, nparts, 1, func(pi, _, _ int) error {
		m := make(map[string]*bucket)
		for _, parts := range staged {
			for _, kv := range parts[pi] {
				if bk, ok := m[kv.key]; ok {
					bk.rows = append(bk.rows, kv.idx)
				} else {
					m[kv.key] = &bucket{rows: []int{kv.idx}}
				}
			}
		}
		tables[pi] = m
		return nil
	})
	r.qs.addParallel(st)
	return &hashTable{parts: tables}
}

// probeEmit probes the hash table (built over g) with f's rows and emits
// joined rows f-major into out. Large probes run in morsels, each batch
// emitting into its own buffer and arena, merged in batch order.
func (r *run) probeEmit(out *frame, f, g *frame, pairs []joinPair, ht *hashTable) {
	rows := f.rows
	p, workers, morsel := r.parallel(len(rows))
	if p == nil {
		var ar codeArena
		var buf []byte
		for _, a := range rows {
			b, ok := appendRowKey(buf[:0], a, pairs, true, r.ev.NullEq)
			buf = b
			if !ok {
				continue
			}
			bk := ht.lookup(buf)
			if bk == nil {
				continue
			}
			for _, j := range bk.rows {
				out.rows = append(out.rows, ar.joinRow(a, g.rows[j]))
			}
		}
		return
	}
	parts := make([][][]uint32, pool.Batches(len(rows), morsel))
	st, _ := p.Each(workers, len(rows), morsel, func(batch, lo, hi int) error {
		var ar codeArena
		var buf []byte
		var part [][]uint32
		for _, a := range rows[lo:hi] {
			b, ok := appendRowKey(buf[:0], a, pairs, true, r.ev.NullEq)
			buf = b
			if !ok {
				continue
			}
			bk := ht.lookup(buf)
			if bk == nil {
				continue
			}
			for _, j := range bk.rows {
				part = append(part, ar.joinRow(a, g.rows[j]))
			}
		}
		parts[batch] = part
		return nil
	})
	r.qs.addParallel(st)
	out.rows = mergeParts(parts)
}

// probeHits probes the hash table (built over the f side) with the probe
// rows, returning the flat (build, probe) hit pairs in probe order —
// groupHits then buckets them per build row and emitMatchSet emits them
// f-major. Parallel batches stage their own hit lists and concatenate in
// batch order, which is exactly probe order, so the serial and parallel
// hit sequences are identical.
func (r *run) probeHits(rows [][]uint32, pairs []joinPair, ht *hashTable) []matchHit {
	p, workers, morsel := r.parallel(len(rows))
	if p == nil {
		var hits []matchHit
		var buf []byte
		for j, row := range rows {
			b, ok := appendRowKey(buf[:0], row, pairs, false, r.ev.NullEq)
			buf = b
			if !ok {
				continue
			}
			bk := ht.lookup(buf)
			if bk == nil {
				continue
			}
			for _, i := range bk.rows {
				hits = append(hits, matchHit{i: int32(i), j: int32(j)})
			}
		}
		return hits
	}
	staged := make([][]matchHit, pool.Batches(len(rows), morsel))
	st, _ := p.Each(workers, len(rows), morsel, func(batch, lo, hi int) error {
		var buf []byte
		var hits []matchHit
		for j := lo; j < hi; j++ {
			b, ok := appendRowKey(buf[:0], rows[j], pairs, false, r.ev.NullEq)
			buf = b
			if !ok {
				continue
			}
			bk := ht.lookup(buf)
			if bk == nil {
				continue
			}
			for _, i := range bk.rows {
				hits = append(hits, matchHit{i: int32(i), j: int32(j)})
			}
		}
		staged[batch] = hits
		return nil
	})
	r.qs.addParallel(st)
	total := 0
	for _, h := range staged {
		total += len(h)
	}
	hits := make([]matchHit, 0, total)
	for _, h := range staged {
		hits = append(hits, h...)
	}
	return hits
}
