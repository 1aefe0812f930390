package rel

import (
	"bytes"
	"unsafe"
)

// TableDelta describes how a table changed between two revisions: which
// rows changed, by position, the net change as sets of dictionary-code
// rows — rows present only in the new revision (Added) and rows present
// only in the old one (Removed) — and a per-column touched mask. It is
// the unit the incremental re-checking layer consumes: a consumer whose
// bound columns are all untouched can keep its previous answer, because
// its projection of the table is row-for-row identical, and one that
// reads each row on its own need only re-read the rows at NewPos.
//
// Deltas are computed against Snapshot copies. Copy-on-write keeps untouched
// columns aliased to the snapshot's vectors, so an unchanged column is
// detected by one pointer compare and an unchanged table costs O(cols);
// only columns that were actually written are scanned. Codes index the
// process-wide shared dictionary, so rows compare as fixed-width uint32
// tuples with no value decoding.
type TableDelta struct {
	Table string   // table name (the new revision's)
	Cols  []string // column names; read-only, aliases the table's schema

	// ColTouched[j] reports whether column j's code vector differs between
	// the revisions. A pure row insert or delete touches every column (all
	// vectors change length, and every projection gains or loses a tuple).
	ColTouched []bool

	// OldPos and NewPos are the positions of the changed rows, ascending:
	// the rows of the old revision that are gone or rewritten, and the
	// rows of the new revision that are new or rewritten. Every other row
	// is unchanged, and those rows are equal in both revisions row for
	// row, in the same order; MapKept maps their positions. An in-place
	// edit changes the same positions in both (the two slices may share
	// storage); a schema change lists every row of both. Read-only.
	OldPos, NewPos []uint32

	// Added and Removed hold full-width code rows in the respective
	// revision's column order: with the row count unchanged, the old and
	// the new row at each changed position; otherwise the rows of the new
	// revision not matched in the old one and the old rows not matched in
	// the new one, compared as multisets, each in its revision's row order.
	Added   [][]uint32
	Removed [][]uint32

	// SchemaChanged reports that the column lists differ; every column is
	// then touched and Added/Removed hold both revisions' full row sets.
	SchemaChanged bool

	OldRows, NewRows int

	// OldVersion and NewVersion name the two table states diffed. A
	// result computed over the table at OldVersion, and placed by row
	// position, can be carried to NewVersion through OldPos and NewPos;
	// over any other state it cannot. A diff against a Snapshot names the
	// snapshot, so a caller that diffs a live table's snapshot sets
	// OldVersion to the live table's state when it took the snapshot.
	OldVersion, NewVersion Version
}

// Empty reports whether the two revisions are identical.
func (d *TableDelta) Empty() bool {
	if d == nil {
		return true
	}
	return !d.SchemaChanged && len(d.Added) == 0 && len(d.Removed) == 0
}

// Rows returns the delta's size: |Added| + |Removed|.
func (d *TableDelta) Rows() int {
	if d == nil {
		return 0
	}
	return len(d.Added) + len(d.Removed)
}

// Touches reports whether a consumer reading the named columns could see a
// different table. It is true whenever the schema or the row count changed
// — any projection's multiset changes size with the table, so cardinality-
// sensitive consumers (joins, COUNT(*)) must re-run even if none of their
// named columns exist here. With the row count unchanged, it is true only
// when one of the named columns was rewritten: rows are then positionally
// identical on every untouched column, so the consumer's projection is
// unchanged row-for-row. Columns the table does not have read as constant
// NULL in both revisions and never fire on their own.
func (d *TableDelta) Touches(cols ...string) bool {
	if d == nil {
		return false
	}
	if d.SchemaChanged || d.OldRows != d.NewRows {
		return true
	}
	for _, c := range cols {
		for j, name := range d.Cols {
			if name == c && d.ColTouched[j] {
				return true
			}
		}
	}
	return false
}

// fullDelta marks every column touched and both row sets as the delta —
// the schema-change / unknown-history fallback.
func fullDelta(old, new *Table) *TableDelta {
	d := &TableDelta{
		Table:         new.name,
		Cols:          new.cols,
		ColTouched:    make([]bool, len(new.cols)),
		SchemaChanged: true,
		OldRows:       old.nrows,
		NewRows:       new.nrows,
		OldVersion:    old.Version(),
		NewVersion:    new.Version(),
		OldPos:        span(0, old.nrows),
		NewPos:        span(0, new.nrows),
	}
	for j := range d.ColTouched {
		d.ColTouched[j] = true
	}
	d.Removed = codeRows(old, d.OldPos)
	d.Added = codeRows(new, d.NewPos)
	return d
}

// span returns the positions lo, lo+1, ..., hi-1.
func span(lo, hi int) []uint32 {
	if hi <= lo {
		return nil
	}
	s := make([]uint32, hi-lo)
	for i := range s {
		s[i] = uint32(lo + i)
	}
	return s
}

// codeRows copies t's rows at the positions rows lists, full width, over
// one arena.
func codeRows(t *Table, rows []uint32) [][]uint32 {
	if len(rows) == 0 {
		return nil
	}
	w := len(t.cols)
	arena := make([]uint32, len(rows)*w)
	out := make([][]uint32, len(rows))
	for k, i := range rows {
		r := arena[k*w : (k+1)*w : (k+1)*w]
		for j, col := range t.data {
			r[j] = col[i]
		}
		out[k] = r
	}
	return out
}

// sharedVec reports whether a and b are the same backing storage over n
// rows — the copy-on-write aliasing fast path.
func sharedVec(a, b []uint32, n int) bool {
	if n == 0 {
		return true
	}
	if len(a) < n || len(b) < n {
		return false
	}
	return &a[0] == &b[0]
}

// DiffCodes computes the delta from old to new. old is typically a
// Snapshot of new taken before a batch of edits. The changed positions
// are found without hashing rows:
//
//   - with the row count unchanged, they are the positions where a
//     touched column differs; a column the tables still share is
//     untouched without a scan;
//   - when new only appended rows to old (the same rewriteGen, more
//     rows), they are the appended range, found in O(cols);
//   - otherwise the rows both revisions share at the start and at the
//     end are trimmed, and the rest is matched in order: when the
//     shorter side's remaining rows are a subsequence of the longer
//     side's, only the unmatched rows changed; else every remaining row
//     counts as changed on both sides, and only those rows are diffed as
//     multisets for Added and Removed.
//
// The existing value-level Diff/DiffTables API (CSV revision diffing) is
// unrelated and unchanged.
func DiffCodes(old, new *Table) *TableDelta {
	if err := sameSchema(old, new); err != nil {
		return fullDelta(old, new)
	}
	d := &TableDelta{
		Table:      new.name,
		Cols:       new.cols,
		ColTouched: make([]bool, len(new.cols)),
		OldRows:    old.nrows,
		NewRows:    new.nrows,
		OldVersion: old.Version(),
		NewVersion: new.Version(),
	}
	if old == new {
		return d
	}
	if old.nrows == new.nrows {
		d.diffInPlace(old, new)
		return d
	}
	// Row counts differ: every column vector changed, and every
	// projection's multiset changed with it.
	for j := range d.ColTouched {
		d.ColTouched[j] = true
	}
	lead, trail := commonRows(old, new)
	oe, ne := old.nrows-trail, new.nrows-trail
	if oe-lead < ne-lead {
		if pos, ok := unmatched(old, lead, oe, new, lead, ne); ok {
			d.NewPos, d.Added = pos, codeRows(new, pos)
			return d
		}
	} else if pos, ok := unmatched(new, lead, ne, old, lead, oe); ok {
		d.OldPos, d.Removed = pos, codeRows(old, pos)
		return d
	}
	d.OldPos, d.NewPos = span(lead, oe), span(lead, ne)
	d.Added, d.Removed = diffMiddle(old, d.OldPos, new, d.NewPos)
	return d
}

// diffInPlace fills the delta between two revisions with the same row
// count: the touched columns (pointer-equal vectors are untouched without
// a scan), then the positions where any touched column differs, each one
// old row removed and one new row added.
func (d *TableDelta) diffInPlace(old, new *Table) {
	var touched []int
	for j := range new.data {
		if sharedVec(old.data[j], new.data[j], new.nrows) {
			continue
		}
		if firstDiff(old.data[j], new.data[j], 0, new.nrows) < new.nrows {
			d.ColTouched[j] = true
			touched = append(touched, j)
		}
	}
	for i := 0; i < new.nrows && len(touched) > 0; i++ {
		for _, j := range touched {
			if old.data[j][i] != new.data[j][i] {
				d.OldPos = append(d.OldPos, uint32(i))
				break
			}
		}
	}
	d.NewPos = d.OldPos
	d.Removed, d.Added = codeRows(old, d.OldPos), codeRows(new, d.NewPos)
}

// commonRows returns how many rows old and new share at the start (lead)
// and, after those, at the end (trail). When one is an append-only
// extension of the other (the same rewriteGen), the shorter one leads
// whole without a compare.
func commonRows(old, new *Table) (lead, trail int) {
	n := min(old.nrows, new.nrows)
	lead = n
	if old.rewriteGen != new.rewriteGen {
		for j, nc := range new.data {
			lead = firstDiff(old.data[j], nc, 0, lead)
		}
	}
	trail = n - lead
	for j, nc := range new.data {
		trail = commonTail(old.data[j][:old.nrows], nc[:new.nrows], trail)
	}
	return lead, trail
}

// diffChunk is how many codes firstDiff and commonTail compare at once
// while they look for a difference.
const diffChunk = 64

// firstDiff returns the first index in [lo, hi) where a and b differ, or
// hi.
func firstDiff(a, b []uint32, lo, hi int) int {
	if equalCodes(a[lo:hi], b[lo:hi]) {
		return hi
	}
	for lo+diffChunk <= hi && equalCodes(a[lo:lo+diffChunk], b[lo:lo+diffChunk]) {
		lo += diffChunk
	}
	a, b = a[lo:hi], b[lo:hi]
	b = b[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			return lo + i
		}
	}
	return hi
}

// commonTail returns how many of the last n codes of a and b agree,
// counted from the end.
func commonTail(a, b []uint32, n int) int {
	a, b = a[len(a)-n:], b[len(b)-n:]
	if equalCodes(a, b) {
		return n
	}
	k := 0 // codes agreeing at the end
	for k+diffChunk <= n && equalCodes(a[n-k-diffChunk:n-k], b[n-k-diffChunk:n-k]) {
		k += diffChunk
	}
	for k < n && a[n-1-k] == b[n-1-k] {
		k++
	}
	return k
}

// equalCodes reports whether a and b, of one length, hold the same codes,
// comparing their bytes in bulk.
func equalCodes(a, b []uint32) bool {
	if len(a) == 0 {
		return true
	}
	return bytes.Equal(
		unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a)),
		unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 4*len(b)))
}

// unmatched matches the rows a[alo:ahi] in order against the rows
// b[blo:bhi], each to the first equal row left, and returns the
// positions of b's rows left unmatched, or false when a's rows are not a
// subsequence of b's. a and b share a schema.
func unmatched(a *Table, alo, ahi int, b *Table, blo, bhi int) ([]uint32, bool) {
	extra := (bhi - blo) - (ahi - alo)
	out := make([]uint32, 0, extra)
	i := alo
	for k := blo; k < bhi; k++ {
		if i < ahi && sameRow(a, i, b, k) {
			i++
			continue
		}
		if len(out) == extra {
			return nil, false
		}
		out = append(out, uint32(k))
	}
	return out, true
}

// sameRow reports whether row i of a and row k of b hold the same codes.
func sameRow(a *Table, i int, b *Table, k int) bool {
	for j, col := range a.data {
		if col[i] != b.data[j][k] {
			return false
		}
	}
	return true
}

// diffMiddle returns the rows of new at newPos not matched among the rows
// of old at oldPos (added), in new's order, and the rows of old not
// matched in new (removed), in old's order. Rows match by their full code
// tuples, each at most once, through a CodeKeys table of old's rows.
func diffMiddle(old *Table, oldPos []uint32, new *Table, newPos []uint32) (added, removed [][]uint32) {
	ps := make([]int, len(new.cols))
	for j := range ps {
		ps[j] = j
	}
	keys := NewCodeKeys(len(ps), len(oldPos))
	var counts []int
	for _, i := range oldPos {
		id := keys.Intern(keys.Row(old.data, ps, int(i)))
		if int(id) == len(counts) {
			counts = append(counts, 0)
		}
		counts[id]++
	}
	var add, rem []uint32
	for _, k := range newPos {
		if id := keys.Find(keys.Row(new.data, ps, int(k))); id >= 0 && counts[id] > 0 {
			counts[id]--
			continue
		}
		add = append(add, k)
	}
	// Whatever counts remain positive are rows only the old revision had;
	// rescan old to emit them in row order.
	for _, i := range oldPos {
		if id := keys.Find(keys.Row(old.data, ps, int(i))); counts[id] > 0 {
			counts[id]--
			rem = append(rem, i)
		}
	}
	return codeRows(new, add), codeRows(old, rem)
}

// MapKept maps ascending positions of the old revision to the new one:
// the rows among them that the delta kept, at their new positions, in
// order. Rows at OldPos are dropped. It does not apply to a schema change.
func (d *TableDelta) MapKept(rows []uint32) []uint32 {
	out := make([]uint32, 0, len(rows))
	o, n := 0, 0 // cursors into OldPos and NewPos
	for _, p := range rows {
		for o < len(d.OldPos) && d.OldPos[o] < p {
			o++
		}
		if o < len(d.OldPos) && d.OldPos[o] == p {
			continue
		}
		// p is the (p-o)-th kept row of the old revision; the new
		// revision's kept row of that rank sits after every changed row
		// at or before it.
		q := p - uint32(o) + uint32(n)
		for n < len(d.NewPos) && d.NewPos[n] <= q {
			n++
			q++
		}
		out = append(out, q)
	}
	return out
}
