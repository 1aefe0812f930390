package rel

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNondeterministic reports a table with two rows whose input cells are
// equal and whose other cells differ: one input, two behaviours.
var ErrNondeterministic = errors.New("rel: table is nondeterministic for one input")

// NoCode is a key code no table cell holds. A binding value that was never
// interned encodes to it, so it only ever meets dontcare cells.
const NoCode = ^uint32(0)

// Matcher is a table compiled for TCAM-style ternary lookup, the way the
// paper's controller tables execute: a NULL input cell is a dontcare that
// matches any value, and among the rows that match a key the most specific
// one (most non-NULL input cells) wins, ties going to the lowest row index.
//
// The key is a []uint32 tuple of dictionary codes in the input-column
// order given to NewMatcher. Rows are bucketed by their first input code
// and pre-sorted by specificity, so the first row of a bucket that matches
// is the answer. A row whose first input is NULL sits in every bucket and
// in the fallback bucket for first codes no row holds.
//
// A Matcher never changes after NewMatcher returns, so any number of
// goroutines may call Match concurrently.
type Matcher struct {
	tab     *Table
	width   int
	buckets map[uint32]*matchBucket
	wild    *matchBucket
}

// matchBucket holds one first-input code's candidate rows, most specific
// first. cells stores each candidate's input codes after the first,
// row-major, so a scan reads one contiguous run.
type matchBucket struct {
	rows  []int32
	cells []uint32
}

// NewMatcher compiles t for lookup on the named input columns, in that
// order. Every other column is an output: two rows with equal input cells
// and different outputs are rejected with ErrNondeterministic, and of two
// rows equal in every cell only the first is kept.
func NewMatcher(t *Table, inCols []string) (*Matcher, error) {
	if len(inCols) == 0 {
		return nil, fmt.Errorf("rel: matcher on table %q needs an input column", t.name)
	}
	in := make([][]uint32, len(inCols))
	isIn := make([]bool, len(t.cols))
	for k, c := range inCols {
		j := t.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, c, t.name)
		}
		in[k] = t.ColCodes(j)
		isIn[j] = true
	}
	var out [][]uint32
	for j := range t.cols {
		if !isIn[j] {
			out = append(out, t.ColCodes(j))
		}
	}
	n := t.NumRows()
	spec := make([]int, n)
	firsts := make(map[uint32][]int32)
	var wild []int32
	// heads and next chain the rows by a hash of their input codes, so
	// equal inputs are found with code compares and no string keys.
	heads := make(map[uint64]int32, n)
	next := make([]int32, n)
	sameCells := func(cols [][]uint32, a, b int) bool {
		for _, col := range cols {
			if col[a] != col[b] {
				return false
			}
		}
		return true
	}
rows:
	for r := 0; r < n; r++ {
		h := uint64(14695981039346656037)
		for _, col := range in {
			h = (h ^ uint64(col[r])) * 1099511628211
			if col[r] != NullCode {
				spec[r]++
			}
		}
		prev, seen := heads[h]
		if !seen {
			prev = -1
		}
		for p := prev; p >= 0; p = next[p] {
			if sameCells(in, int(p), r) {
				if !sameCells(out, int(p), r) {
					return nil, fmt.Errorf("%w: table %q", ErrNondeterministic, t.name)
				}
				continue rows
			}
		}
		next[r], heads[h] = prev, int32(r)
		if f := in[0][r]; f != NullCode {
			firsts[f] = append(firsts[f], int32(r))
		} else {
			wild = append(wild, int32(r))
		}
	}
	m := &Matcher{tab: t, width: len(inCols), buckets: make(map[uint32]*matchBucket, len(firsts))}
	bucket := func(rows []int32) *matchBucket {
		slices.SortStableFunc(rows, func(a, b int32) int { return spec[b] - spec[a] })
		b := &matchBucket{rows: rows, cells: make([]uint32, 0, len(rows)*(len(in)-1))}
		for _, r := range rows {
			for _, col := range in[1:] {
				b.cells = append(b.cells, col[r])
			}
		}
		return b
	}
	for f, rows := range firsts {
		// Both lists are in row order, so the stable sort by specificity
		// leaves equal scores in row order too.
		m.buckets[f] = bucket(mergeRows(rows, wild))
	}
	m.wild = bucket(wild)
	return m, nil
}

// mergeRows merges two ascending row lists into a new ascending list.
func mergeRows(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Table returns the compiled table, for reading a matched row's outputs.
func (m *Matcher) Table() *Table { return m.tab }

// Match returns the index of the most specific row matching key, or -1.
// key holds one code per input column, in NewMatcher's order.
func (m *Matcher) Match(key []uint32) int {
	b := m.buckets[key[0]]
	if b == nil {
		b = m.wild
	}
	rest := key[1:m.width]
	w := len(rest)
candidates:
	for i, r := range b.rows {
		for k, c := range b.cells[i*w : i*w+w] {
			if c != NullCode && c != rest[k] {
				continue candidates
			}
		}
		return int(r)
	}
	return -1
}
