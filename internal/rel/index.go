package rel

import (
	"fmt"
	"sync/atomic"
)

// Index is a hash index over one or more columns of a table, mapping each
// distinct key to the row numbers holding it. An index obtained from
// BuildIndex is a snapshot over the rows present at construction time; an
// index obtained from Table.IndexOn is persistent — the table maintains it
// across inserts and drops it on any other mutation. The deadlock analyzer
// and the sqlmini executor both rely on indexes to make equality lookups
// and pairwise composition near-linear. Keys are fixed-width dictionary
// code sequences (4 bytes per column), so building and probing hash
// integers rather than value strings.
type Index struct {
	t       *Table
	cols    []string
	colIdx  []int
	buckets map[string][]int
	// shared marks buckets aliased by another Index — one epoch's index
	// carried forward to the next (see carry). The first add on either
	// side copies the map first, so a published index never changes.
	shared atomic.Bool
}

// BuildIndex constructs a hash index over the given columns. The column
// list must be non-empty and free of duplicates; errors name the offending
// column and table.
func BuildIndex(t *Table, cols ...string) (*Index, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("rel: index on table %q needs at least one column", t.name)
	}
	idx := make([]int, len(cols))
	seen := make(map[string]struct{}, len(cols))
	for k, c := range cols {
		if _, dup := seen[c]; dup {
			return nil, fmt.Errorf("%w: %q indexed twice in table %q", ErrDupColumn, c, t.name)
		}
		seen[c] = struct{}{}
		j := t.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, c, t.name)
		}
		idx[k] = j
	}
	ix := &Index{t: t, cols: append([]string(nil), cols...), colIdx: idx, buckets: make(map[string][]int)}
	kb := make([]byte, 0, 4*len(idx))
	for i := 0; i < t.nrows; i++ {
		kb = kb[:0]
		for _, j := range idx {
			kb = appendCodeKey(kb, t.data[j][i])
		}
		ix.buckets[string(kb)] = append(ix.buckets[string(kb)], i)
	}
	return ix, nil
}

// Lookup returns the row numbers whose indexed columns equal vals, in
// insertion order. The number of values must match the indexed column count.
// A probe value absent from the dictionary cannot occur in any cell, so it
// short-circuits to no match without interning.
func (ix *Index) Lookup(vals ...Value) []int {
	if len(vals) != len(ix.colIdx) {
		return nil
	}
	kb := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		c, ok := ix.t.dict.LookupCode(v)
		if !ok {
			return nil
		}
		kb = appendCodeKey(kb, c)
	}
	return ix.buckets[string(kb)]
}

// LookupCodes is Lookup with the probe already dictionary-encoded; the
// executor's index nested-loop join probes with frame codes directly. A
// key of up to 16 columns is built on the stack, so a probe allocates
// nothing.
func (ix *Index) LookupCodes(codes ...uint32) []int {
	if len(codes) != len(ix.colIdx) {
		return nil
	}
	var a [64]byte
	kb := a[:0]
	for _, c := range codes {
		kb = appendCodeKey(kb, c)
	}
	return ix.buckets[string(kb)]
}

// Distinct returns the number of distinct keys in the index — the
// cardinality estimate the query planner divides row counts by.
func (ix *Index) Distinct() int { return len(ix.buckets) }

// add appends row i (already present in the table) to the index, for
// incremental maintenance of Table.IndexOn caches on insert.
func (ix *Index) add(i int) {
	if ix.shared.Load() {
		ix.own()
	}
	k := ix.t.RowKey(i, ix.colIdx)
	ix.buckets[k] = append(ix.buckets[k], i)
}

// own gives the index a private bucket map. The row lists stay aliased
// but are capped at their length, so the next append to any of them
// reallocates instead of writing into storage the other index reads.
func (ix *Index) own() {
	b := make(map[string][]int, len(ix.buckets))
	for k, rows := range ix.buckets {
		b[k] = rows[:len(rows):len(rows)]
	}
	ix.buckets = b
	ix.shared.Store(false)
}

// carry returns the index as it stands, re-pointed at a derived table t
// whose indexed columns hold the same codes in the same rows — the
// fast path of Table.CarryIndexes. Both indexes share the column
// metadata and the buckets, and both are marked shared, so whichever is
// extended first copies its buckets (see add) and the other stays
// frozen.
func (ix *Index) carry(t *Table) *Index {
	nix := &Index{t: t, cols: ix.cols, colIdx: ix.colIdx, buckets: ix.buckets}
	nix.shared.Store(true)
	ix.shared.Store(true)
	return nix
}

// extendTo carries the index to a derived table t whose first n rows are
// identical to the source's, then appends rows n..t.NumRows — the
// append-only path of Table.CarryIndexes.
func (ix *Index) extendTo(t *Table, n int) *Index {
	nix := ix.carry(t)
	for i := n; i < t.nrows; i++ {
		nix.add(i)
	}
	return nix
}
