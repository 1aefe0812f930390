package rel

// TableDelta describes how a table changed between two revisions as sets of
// dictionary-code rows: rows present only in the new revision (Added), rows
// present only in the old one (Removed), and a per-column touched mask. It
// is the unit the incremental re-checking layer consumes — a consumer whose
// bound columns are all untouched can keep its previous answer, because its
// projection of the table is row-for-row identical.
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

	// Added and Removed hold full-width code rows in the respective
	// revision's column order. For in-place cell edits the same row index
	// contributes one Removed (old) and one Added (new) row.
	Added   [][]uint32
	Removed [][]uint32

	// SchemaChanged reports that the column lists differ; every column is
	// then touched and Added/Removed hold both revisions' full row sets.
	SchemaChanged bool

	OldRows, NewRows int
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
	}
	for j := range d.ColTouched {
		d.ColTouched[j] = true
	}
	d.Removed = copyCodeRows(old)
	d.Added = copyCodeRows(new)
	return d
}

func copyCodeRows(t *Table) [][]uint32 {
	if t.nrows == 0 {
		return nil
	}
	w := len(t.cols)
	arena := make([]uint32, t.nrows*w)
	rows := make([][]uint32, t.nrows)
	for j, col := range t.data {
		for i := 0; i < t.nrows; i++ {
			arena[i*w+j] = col[i]
		}
	}
	for i := range rows {
		rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
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
// Snapshot of new taken before a batch of edits. Costs: O(cols) when the
// tables alias each other's storage (no mutation since the snapshot),
// O(rows × changed-cols) for in-place edits, O(rows × cols) when rows were
// added or removed. The existing value-level Diff/DiffTables API (CSV
// revision diffing) is unrelated and unchanged.
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
	}
	if old == new {
		return d
	}
	if old.nrows != new.nrows {
		// Row counts differ: every column vector changed, and every
		// projection's multiset changed with it. Diff the full rows as a
		// multiset keyed by their fixed-width code encoding.
		for j := range d.ColTouched {
			d.ColTouched[j] = true
		}
		d.Added, d.Removed = multisetDiff(old, new)
		return d
	}
	// Equal row counts: find the touched columns (pointer-equal vectors are
	// untouched without a scan), then emit the rows where any touched
	// column differs — the positional in-place-edit fast path.
	touched := false
	for j := range new.data {
		if sharedVec(old.data[j], new.data[j], new.nrows) {
			continue
		}
		oc, nc := old.data[j][:new.nrows], new.data[j][:new.nrows]
		for i := range nc {
			if oc[i] != nc[i] {
				d.ColTouched[j] = true
				touched = true
				break
			}
		}
	}
	if !touched {
		return d
	}
	w := len(new.cols)
	for i := 0; i < new.nrows; i++ {
		diff := false
		for j, hit := range d.ColTouched {
			if hit && old.data[j][i] != new.data[j][i] {
				diff = true
				break
			}
		}
		if !diff {
			continue
		}
		or := make([]uint32, w)
		nr := make([]uint32, w)
		for j := 0; j < w; j++ {
			or[j] = old.data[j][i]
			nr[j] = new.data[j][i]
		}
		d.Removed = append(d.Removed, or)
		d.Added = append(d.Added, nr)
	}
	return d
}

// multisetDiff returns the rows of new not matched in old (added) and the
// rows of old not matched in new (removed), comparing full code rows as a
// multiset.
func multisetDiff(old, new *Table) (added, removed [][]uint32) {
	counts := make(map[string]int, old.nrows)
	for i := 0; i < old.nrows; i++ {
		counts[old.RowKey(i, nil)]++
	}
	w := len(new.cols)
	for i := 0; i < new.nrows; i++ {
		k := new.RowKey(i, nil)
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		r := make([]uint32, w)
		for j := 0; j < w; j++ {
			r[j] = new.data[j][i]
		}
		added = append(added, r)
	}
	// Whatever counts remain positive are rows only the old revision had;
	// rescan old to emit them in row order.
	for i := 0; i < old.nrows; i++ {
		k := old.RowKey(i, nil)
		if counts[k] > 0 {
			counts[k]--
			r := make([]uint32, w)
			for j := 0; j < w; j++ {
				r[j] = old.data[j][i]
			}
			removed = append(removed, r)
		}
	}
	return added, removed
}
