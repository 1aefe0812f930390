package rel

import (
	"fmt"
	"io"
)

// Diff is the difference between two revisions of a table, as used during
// protocol revisions: rows only in the new revision, rows only in the old
// one, and — when a key is given — rows whose key survived but whose other
// columns changed.
type Diff struct {
	Added   *Table
	Removed *Table
	// Changed pairs old/new rows sharing a key (only with DiffByKey).
	Changed []ChangedRow
}

// ChangedRow is one key collision with differing non-key columns.
type ChangedRow struct {
	Key      []Value
	Old, New []Value
}

// Empty reports whether the revisions are identical.
func (d *Diff) Empty() bool {
	return d.Added.Empty() && d.Removed.Empty() && len(d.Changed) == 0
}

// DiffTables computes the set difference between two revisions with
// identical schemas.
func DiffTables(old, new *Table) (*Diff, error) {
	added, err := new.Difference(old)
	if err != nil {
		return nil, err
	}
	removed, err := old.Difference(new)
	if err != nil {
		return nil, err
	}
	return &Diff{
		Added:   added.SetName(new.Name() + "+"),
		Removed: removed.SetName(old.Name() + "-"),
	}, nil
}

// DiffByKey computes a keyed difference: rows are matched on the key
// columns (for controller tables, the input columns); matched rows with
// differing remaining columns are reported as changed rather than as an
// add/remove pair. Duplicate keys within one revision fall back to
// add/remove reporting.
func DiffByKey(old, new *Table, key []string) (*Diff, error) {
	if err := sameSchema(old, new); err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(key))
	for i, k := range key {
		j := old.ColIndex(k)
		if j < 0 {
			return nil, fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, k, old.Name())
		}
		keyIdx[i] = j
	}
	index := func(t *Table) (map[string]int, map[string]bool) {
		byKey := make(map[string]int, t.NumRows())
		dup := map[string]bool{}
		for i := 0; i < t.NumRows(); i++ {
			k := t.RowKey(i, keyIdx)
			if _, seen := byKey[k]; seen {
				dup[k] = true
			}
			byKey[k] = i
		}
		return byKey, dup
	}
	oldBy, oldDup := index(old)
	newBy, newDup := index(new)
	fullRows := func(t *Table) map[string]struct{} {
		set := make(map[string]struct{}, t.NumRows())
		for i := 0; i < t.NumRows(); i++ {
			set[t.RowKey(i, nil)] = struct{}{}
		}
		return set
	}
	oldFull := fullRows(old)
	newFull := fullRows(new)

	d := &Diff{
		Added:   MustNewTable(new.Name()+"+", new.Columns()...),
		Removed: MustNewTable(old.Name()+"-", old.Columns()...),
	}
	rowsEqual := func(a *Table, i int, b *Table, j int) bool {
		for c := range a.data {
			if a.data[c][i] != b.data[c][j] {
				return false
			}
		}
		return true
	}
	var addIdx, remIdx []int
	for i := 0; i < new.NumRows(); i++ {
		k := new.RowKey(i, keyIdx)
		j, ok := oldBy[k]
		switch {
		case !ok:
			addIdx = append(addIdx, i)
		case oldDup[k] || newDup[k]:
			if _, have := oldFull[new.RowKey(i, nil)]; !have {
				addIdx = append(addIdx, i)
			}
		case !rowsEqual(old, j, new, i):
			keyVals := make([]Value, len(keyIdx))
			for n, kj := range keyIdx {
				keyVals[n] = new.At(i, kj)
			}
			d.Changed = append(d.Changed, ChangedRow{
				Key: keyVals,
				Old: old.rowValues(j),
				New: new.rowValues(i),
			})
		}
	}
	for i := 0; i < old.NumRows(); i++ {
		k := old.RowKey(i, keyIdx)
		_, ok := newBy[k]
		switch {
		case !ok:
			remIdx = append(remIdx, i)
		case oldDup[k] || newDup[k]:
			if _, have := newFull[old.RowKey(i, nil)]; !have {
				remIdx = append(remIdx, i)
			}
		}
	}
	d.Added.gatherFrom(new, addIdx)
	d.Removed.gatherFrom(old, remIdx)
	return d, nil
}

// Write renders the diff in a unified-ish textual form.
func (d *Diff) Write(w io.Writer) error {
	if d.Empty() {
		_, err := io.WriteString(w, "tables identical\n")
		return err
	}
	if !d.Removed.Empty() {
		fmt.Fprintf(w, "removed (%d rows):\n", d.Removed.NumRows())
		if err := d.Removed.Write(w); err != nil {
			return err
		}
	}
	if !d.Added.Empty() {
		fmt.Fprintf(w, "added (%d rows):\n", d.Added.NumRows())
		if err := d.Added.Write(w); err != nil {
			return err
		}
	}
	for _, c := range d.Changed {
		fmt.Fprintf(w, "changed key %v:\n  old: %v\n  new: %v\n", c.Key, c.Old, c.New)
	}
	return nil
}

// rowValues decodes row i into a fresh value slice.
func (t *Table) rowValues(i int) []Value {
	out := make([]Value, len(t.data))
	for j := range out {
		out[j] = t.At(i, j)
	}
	return out
}
