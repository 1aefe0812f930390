package rel

import (
	"fmt"
)

// Select returns a new table containing the rows for which pred is true.
func (t *Table) Select(pred func(Row) bool) *Table {
	out := MustNewTable(t.name, t.cols...)
	kept := make([]int, 0, t.nrows)
	for i := 0; i < t.nrows; i++ {
		if pred(Row{t: t, i: i}) {
			kept = append(kept, i)
		}
	}
	out.gatherFrom(t, kept)
	return out
}

// Project returns a new table with only the given columns, in the given
// order. Duplicate rows are retained (use Distinct for set semantics).
// Projection is a column-vector copy — no per-row work at all.
func (t *Table) Project(cols ...string) (*Table, error) {
	idx := make([]int, len(cols))
	for k, c := range cols {
		j := t.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, c, t.name)
		}
		idx[k] = j
	}
	out, err := NewTable(t.name, cols...)
	if err != nil {
		return nil, err
	}
	for k, j := range idx {
		out.data[k] = append([]uint32(nil), t.data[j][:t.nrows]...)
	}
	out.nrows = t.nrows
	return out, nil
}

// Distinct returns a new table with duplicate rows removed, preserving the
// first occurrence order.
func (t *Table) Distinct() *Table {
	out := MustNewTable(t.name, t.cols...)
	seen := make(map[string]struct{}, t.nrows)
	kept := make([]int, 0, t.nrows)
	var kb []byte
	for i := 0; i < t.nrows; i++ {
		kb = kb[:0]
		for _, col := range t.data {
			kb = appendCodeKey(kb, col[i])
		}
		if _, dup := seen[string(kb)]; dup {
			continue
		}
		seen[string(kb)] = struct{}{}
		kept = append(kept, i)
	}
	out.gatherFrom(t, kept)
	return out
}

// Union returns the multiset union of t and o (UNION ALL). Schemas must have
// identical column lists.
func (t *Table) Union(o *Table) (*Table, error) {
	if err := sameSchema(t, o); err != nil {
		return nil, err
	}
	out := MustNewTable(t.name, t.cols...)
	for j := range out.data {
		col := make([]uint32, 0, t.nrows+o.nrows)
		col = append(col, t.data[j][:t.nrows]...)
		col = append(col, o.data[j][:o.nrows]...)
		out.data[j] = col
	}
	out.nrows = t.nrows + o.nrows
	return out, nil
}

// UnionDistinct returns the set union of t and o (SQL UNION).
func (t *Table) UnionDistinct(o *Table) (*Table, error) {
	u, err := t.Union(o)
	if err != nil {
		return nil, err
	}
	return u.Distinct(), nil
}

// Difference returns the rows of t that do not occur in o (set semantics).
func (t *Table) Difference(o *Table) (*Table, error) {
	if err := sameSchema(t, o); err != nil {
		return nil, err
	}
	drop := o.fullRowKeySet()
	out := MustNewTable(t.name, t.cols...)
	kept := make([]int, 0, t.nrows)
	for i := 0; i < t.nrows; i++ {
		if _, gone := drop[t.RowKey(i, nil)]; !gone {
			kept = append(kept, i)
		}
	}
	out.gatherFrom(t, kept)
	return out, nil
}

// fullRowKeySet returns the set of whole-row keys. Codes come from the
// shared dictionary, so the keys are comparable across tables.
func (t *Table) fullRowKeySet() map[string]struct{} {
	set := make(map[string]struct{}, t.nrows)
	var kb []byte
	for i := 0; i < t.nrows; i++ {
		kb = kb[:0]
		for _, col := range t.data {
			kb = appendCodeKey(kb, col[i])
		}
		set[string(kb)] = struct{}{}
	}
	return set
}

// gatherFrom fills out with src's rows at the given indexes, using one
// gather pass per column vector.
func (out *Table) gatherFrom(src *Table, rows []int) {
	for j, col := range src.data {
		g := make([]uint32, len(rows))
		for k, i := range rows {
			g[k] = col[i]
		}
		out.data[j] = g
	}
	out.nrows = len(rows)
}

// Cross returns the cross product of t and o. Column names must not collide;
// use Rename first if they do. This is the operation the paper's constraint
// solver prunes: controller tables are cross products of column tables with
// non-satisfying rows removed.
func (t *Table) Cross(o *Table) (*Table, error) {
	cols := make([]string, 0, len(t.cols)+len(o.cols))
	cols = append(cols, t.cols...)
	cols = append(cols, o.cols...)
	out, err := NewTable(t.name+"_x_"+o.name, cols...)
	if err != nil {
		return nil, err
	}
	n := t.nrows * o.nrows
	for j, col := range t.data {
		g := make([]uint32, 0, n)
		for i := 0; i < t.nrows; i++ {
			c := col[i]
			for b := 0; b < o.nrows; b++ {
				g = append(g, c)
			}
		}
		out.data[j] = g
	}
	for j, col := range o.data {
		g := make([]uint32, 0, n)
		for i := 0; i < t.nrows; i++ {
			g = append(g, col[:o.nrows]...)
		}
		out.data[len(t.cols)+j] = g
	}
	out.nrows = n
	return out, nil
}

// JoinOn is a condition for EquiJoin: left column name equals right column
// name.
type JoinOn struct {
	Left, Right string
}

// EquiJoin returns the inner equi-join of t and o on the given column pairs,
// using a hash join on the right table. NULL keys never match (SQL
// semantics). Column names must not collide across the two tables. Keys are
// dictionary codes — four bytes per join column — and the probe compares
// integers, never strings.
func (t *Table) EquiJoin(o *Table, on []JoinOn) (*Table, error) {
	if len(on) == 0 {
		return t.Cross(o)
	}
	lidx := make([]int, len(on))
	ridx := make([]int, len(on))
	for k, c := range on {
		li := t.ColIndex(c.Left)
		if li < 0 {
			return nil, fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, c.Left, t.name)
		}
		ri := o.ColIndex(c.Right)
		if ri < 0 {
			return nil, fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, c.Right, o.name)
		}
		lidx[k], ridx[k] = li, ri
	}
	cols := make([]string, 0, len(t.cols)+len(o.cols))
	cols = append(cols, t.cols...)
	cols = append(cols, o.cols...)
	out, err := NewTable(t.name+"_j_"+o.name, cols...)
	if err != nil {
		return nil, err
	}
	// Build hash on the right side.
	buckets := make(map[string][]int, o.nrows)
	var kb []byte
	for i := 0; i < o.nrows; i++ {
		if rowHasNullCode(o, i, ridx) {
			continue
		}
		kb = kb[:0]
		for _, j := range ridx {
			kb = appendCodeKey(kb, o.data[j][i])
		}
		buckets[string(kb)] = append(buckets[string(kb)], i)
	}
	var lrows, rrows []int
	for i := 0; i < t.nrows; i++ {
		if rowHasNullCode(t, i, lidx) {
			continue
		}
		kb = kb[:0]
		for _, j := range lidx {
			kb = appendCodeKey(kb, t.data[j][i])
		}
		for _, j := range buckets[string(kb)] {
			lrows = append(lrows, i)
			rrows = append(rrows, j)
		}
	}
	for j, col := range t.data {
		g := make([]uint32, len(lrows))
		for k, i := range lrows {
			g[k] = col[i]
		}
		out.data[j] = g
	}
	for j, col := range o.data {
		g := make([]uint32, len(rrows))
		for k, i := range rrows {
			g[k] = col[i]
		}
		out.data[len(t.cols)+j] = g
	}
	out.nrows = len(lrows)
	return out, nil
}

func rowHasNullCode(t *Table, i int, idx []int) bool {
	for _, j := range idx {
		if t.data[j][i] == NullCode {
			return true
		}
	}
	return false
}

// Rename returns a copy of t with columns renamed according to mapping
// old→new. Unmapped columns keep their names. The copy shares t's column
// vectors; such views must not be mutated.
func (t *Table) Rename(mapping map[string]string) (*Table, error) {
	cols := make([]string, len(t.cols))
	for i, c := range t.cols {
		if n, ok := mapping[c]; ok {
			cols[i] = n
		} else {
			cols[i] = c
		}
	}
	out, err := NewTable(t.name, cols...)
	if err != nil {
		return nil, err
	}
	copy(out.data, t.data)
	out.nrows = t.nrows
	return out, nil
}

// ContainsAll reports whether every row of o occurs in t (set semantics over
// the shared column order; schemas must match). This implements the paper's
// reconstruction check: the table rebuilt from implementation tables must
// contain the original debugged table.
func (t *Table) ContainsAll(o *Table) (bool, error) {
	if err := sameSchema(t, o); err != nil {
		return false, err
	}
	have := t.fullRowKeySet()
	for i := 0; i < o.nrows; i++ {
		if _, ok := have[o.RowKey(i, nil)]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// EqualRows reports whether t and o hold exactly the same set of rows
// (duplicates collapsed), regardless of row order.
func (t *Table) EqualRows(o *Table) (bool, error) {
	ab, err := t.ContainsAll(o)
	if err != nil || !ab {
		return ab, err
	}
	return o.ContainsAll(t)
}

func sameSchema(a, b *Table) error {
	if len(a.cols) != len(b.cols) {
		return fmt.Errorf("%w: %q has %d columns, %q has %d", ErrSchema, a.name, len(a.cols), b.name, len(b.cols))
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] {
			return fmt.Errorf("%w: column %d is %q in %q but %q in %q", ErrSchema, i, a.cols[i], a.name, b.cols[i], b.name)
		}
	}
	return nil
}
