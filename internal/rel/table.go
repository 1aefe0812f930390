package rel

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Common errors returned by table operations.
var (
	ErrArity         = errors.New("rel: value count does not match column count")
	ErrUnknownColumn = errors.New("rel: unknown column")
	ErrDupColumn     = errors.New("rel: duplicate column")
	ErrSchema        = errors.New("rel: incompatible schemas")
)

// Table is an in-memory relation: an ordered list of named columns and a
// multiset of rows. Operations that produce new relations never mutate their
// receivers, matching relational-algebra semantics; Insert and Delete mutate
// in place.
//
// Storage is columnar and dictionary-encoded: each column is a dense
// []uint32 vector of codes into the shared dictionary (SharedDict), so a
// cell costs 4 bytes instead of a 40-byte Value, a column scan is a
// contiguous integer sweep, and equality is a single compare. The
// historical row-oriented API (Row, Get, InsertRow of Values) remains as a
// façade that decodes and interns one cell at a time. Hot consumers use
// the code-level API instead: ColCodes (a column's vector, zero copy),
// AppendColumns, CodeAt/At. The table keeps no row-major copy
// of its codes.
type Table struct {
	name string
	cols []string
	pos  map[string]int
	dict *Dict

	// data holds one code vector per column; nrows is the row count (kept
	// separately so zero-column tables can still hold rows, which the
	// constraint solver's empty-spec path relies on).
	data  [][]uint32
	nrows int

	// rev counts mutations. Every mutating path funnels through exactly one
	// of the two bookkeeping points (appended / rewritten), which bump it
	// atomically with the index maintenance they already perform —
	// so a revision number plus a pointer identity check is a sound
	// "nothing changed" test for the delta layer.
	rev uint64

	// shared marks the column vectors as aliased by a Snapshot (in either
	// direction); the next mutation copies them first (copy-on-write), so
	// snapshots stay immutable at O(cols) capture cost. It is atomic so
	// concurrent readers may Snapshot the same published (immutable)
	// table — every session's revision tracker does — without racing;
	// mutators still require external exclusion.
	shared atomic.Bool

	// rewriteGen counts mutations that rewrite, remove, or reorder
	// existing rows (appends leave it alone). A snapshot carries its
	// source's value, so "same rewriteGen, no fewer rows" proves a
	// derived table is an append-only extension — the precondition for
	// extending persistent indexes incrementally at epoch-publish time
	// instead of rebuilding them.
	rewriteGen uint64

	// idxMu serializes lazy index construction by concurrent readers; it
	// is the table's only lock. Mutators do not take it: a table must not
	// be mutated concurrently with reads (sqlmini.DB enforces this with
	// its reader/writer lock), and that same exclusion covers the index
	// cache.
	idxMu   sync.Mutex
	indexes map[string]*Index
}

// NewTable creates an empty table with the given column names.
// Column names are case-sensitive and must be unique.
func NewTable(name string, cols ...string) (*Table, error) {
	t := &Table{
		name: name,
		cols: append([]string(nil), cols...),
		pos:  make(map[string]int, len(cols)),
		dict: shared,
		data: make([][]uint32, len(cols)),
	}
	for i, c := range cols {
		if _, dup := t.pos[c]; dup {
			return nil, fmt.Errorf("%w: %q in table %q", ErrDupColumn, c, name)
		}
		t.pos[c] = i
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; for statically known schemas.
func MustNewTable(name string, cols ...string) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetName renames the table in place and returns it for chaining.
func (t *Table) SetName(name string) *Table {
	t.name = name
	return t
}

// Columns returns a copy of the column name list.
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// ColumnsRef returns the column name list without copying; callers must
// treat it as read-only. Hot paths (schema probing, projection planning)
// use it to avoid the defensive copy Columns makes.
func (t *Table) ColumnsRef() []string { return t.cols }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// Empty reports whether the table has no rows.
func (t *Table) Empty() bool { return t.nrows == 0 }

// ColIndex returns the position of column name, or -1 if absent.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.pos[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool { return t.ColIndex(name) >= 0 }

// Dict returns the dictionary this table's codes index into (the shared
// process-wide dictionary, so codes are comparable across tables).
func (t *Table) Dict() *Dict { return t.dict }

// ColCodes returns column j's code vector without copying; callers must
// treat it as read-only and must not retain it across mutations. This is
// the zero-copy column view the vectorized layers scan.
func (t *Table) ColCodes(j int) []uint32 { return t.data[j][:t.nrows] }

// CodeAt returns the dictionary code at row i, column j.
func (t *Table) CodeAt(i, j int) uint32 { return t.data[j][i] }

// At returns the value at row i, column j (positional Get).
func (t *Table) At(i, j int) Value { return t.dict.Value(t.data[j][i]) }

// Revision returns the table's mutation counter. It starts at zero and is
// bumped exactly once by every mutating operation (Insert, Set, DeleteRows,
// bulk appends), so "same *Table pointer, same revision" proves the
// contents are unchanged — the O(1) fast path delta tracking relies on.
func (t *Table) Revision() uint64 { return t.rev }

// Snapshot returns an immutable O(cols) copy of the table: the column
// vectors are shared, and both tables are marked copy-on-write so the
// first subsequent mutation of either side copies the codes before
// writing. Snapshots carry the source's revision number and no index
// cache.
func (t *Table) Snapshot() *Table {
	s := &Table{
		name:       t.name,
		cols:       t.cols,
		pos:        t.pos,
		dict:       t.dict,
		data:       append([][]uint32(nil), t.data...),
		nrows:      t.nrows,
		rev:        t.rev,
		rewriteGen: t.rewriteGen,
	}
	s.shared.Store(true)
	t.shared.Store(true)
	return s
}

// ensureOwned copies the column vectors if a Snapshot aliases them, so
// in-place writes and appends cannot leak into the snapshot's view. Every
// mutator calls it before touching data.
func (t *Table) ensureOwned() {
	if !t.shared.Load() {
		return
	}
	for j, col := range t.data {
		t.data[j] = append(make([]uint32, 0, t.nrows), col[:t.nrows]...)
	}
	t.shared.Store(false)
}

// appended is the single bookkeeping point for mutations that only add
// rows (from index base): bump the revision and maintain cached indexes
// incrementally for the new rows.
func (t *Table) appended(base int) {
	t.rev++
	if t.indexes != nil {
		for i := base; i < t.nrows; i++ {
			for _, ix := range t.indexes {
				ix.add(i)
			}
		}
	}
}

// rewritten is the single bookkeeping point for mutations that rewrite,
// remove, or reorder existing rows: bump the revision and invalidate
// cached indexes wholesale.
func (t *Table) rewritten() {
	t.rev++
	t.rewriteGen++
	t.invalidateIndexes()
}

// Insert appends a row. The number of values must equal the column count.
func (t *Table) Insert(vals ...Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("%w: got %d, want %d in table %q", ErrArity, len(vals), len(t.cols), t.name)
	}
	t.ensureOwned()
	for j, v := range vals {
		t.data[j] = append(t.data[j], t.dict.Code(v))
	}
	t.nrows++
	t.appended(t.nrows - 1)
	return nil
}

// MustInsert is Insert that panics on arity mismatch.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(vals...); err != nil {
		panic(err)
	}
}

// InsertRow appends an already-built row slice. The values are encoded into
// the column vectors; the caller keeps ownership of the slice.
func (t *Table) InsertRow(row []Value) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("%w: got %d, want %d in table %q", ErrArity, len(row), len(t.cols), t.name)
	}
	t.ensureOwned()
	for j, v := range row {
		t.data[j] = append(t.data[j], t.dict.Code(v))
	}
	t.nrows++
	t.appended(t.nrows - 1)
	return nil
}

// AppendColumns bulk-appends n rows given column-major: cols[j] holds
// column j's codes for the new rows. The column-at-a-time result builder
// uses this — each output column lands with one copy, no per-row
// scatter.
func (t *Table) AppendColumns(cols [][]uint32, n int) error {
	if len(cols) != len(t.cols) {
		return fmt.Errorf("%w: got %d columns, want %d in table %q", ErrArity, len(cols), len(t.cols), t.name)
	}
	for j, c := range cols {
		if len(c) != n {
			return fmt.Errorf("%w: column %d has %d rows, want %d in table %q", ErrArity, j, len(c), n, t.name)
		}
	}
	if n == 0 {
		return nil
	}
	t.ensureOwned()
	for j := range t.data {
		t.data[j] = append(t.data[j], cols[j]...)
	}
	base := t.nrows
	t.nrows += n
	t.appended(base)
	return nil
}

// Row returns an accessor for row i. It panics if i is out of range.
func (t *Table) Row(i int) Row {
	if i < 0 || i >= t.nrows {
		panic(fmt.Sprintf("rel: row %d out of range in table %q (%d rows)", i, t.name, t.nrows))
	}
	return Row{t: t, i: i}
}

// Get returns the value at row i, column name. It returns NULL for an
// unknown column, mirroring SQL's treatment of missing attributes in the
// paper's sparse controller tables.
func (t *Table) Get(i int, name string) Value {
	j := t.ColIndex(name)
	if j < 0 {
		return Null()
	}
	return t.dict.Value(t.data[j][i])
}

// Set assigns the value at row i, column name.
func (t *Table) Set(i int, name string, v Value) error {
	j := t.ColIndex(name)
	if j < 0 {
		return fmt.Errorf("%w: %q in table %q", ErrUnknownColumn, name, t.name)
	}
	t.ensureOwned()
	t.data[j][i] = t.dict.Code(v)
	t.rewritten()
	return nil
}

// ReplaceInCol substitutes every occurrence of from with to in the named
// column and returns the number of cells rewritten. It is a single sweep
// over one code vector — the columnar replacement for mutating rows in
// place (hwmap's NULL-sentinel materialization uses it). An unknown column
// rewrites nothing.
func (t *Table) ReplaceInCol(name string, from, to Value) int {
	j := t.ColIndex(name)
	if j < 0 {
		return 0
	}
	fc, ok := t.dict.LookupCode(from)
	if !ok {
		return 0
	}
	t.ensureOwned()
	col := t.data[j][:t.nrows]
	n := 0
	var tc uint32
	for i, c := range col {
		if c == fc {
			if n == 0 {
				tc = t.dict.Code(to)
			}
			col[i] = tc
			n++
		}
	}
	if n > 0 {
		t.rewritten()
	}
	return n
}

// DeleteRows removes the rows whose numbers rows lists in strictly
// increasing order — a selection vector — and returns the number removed.
// Each column is compacted in one pass that moves the runs between the
// removed rows.
func (t *Table) DeleteRows(rows []uint32) int {
	if len(rows) == 0 {
		return 0
	}
	t.ensureOwned()
	for j, col := range t.data {
		w := int(rows[0])
		for k, r := range rows {
			next := t.nrows
			if k+1 < len(rows) {
				next = int(rows[k+1])
			}
			w += copy(col[w:], col[int(r)+1:next])
		}
		t.data[j] = col[:w]
	}
	t.nrows -= len(rows)
	t.rewritten()
	return len(rows)
}

// Clone returns a deep copy of the table. Copying code vectors is cheap —
// 4 bytes per cell — so clones no longer dominate allocation profiles.
func (t *Table) Clone() *Table {
	c := MustNewTable(t.name, t.cols...)
	for j, col := range t.data {
		c.data[j] = append([]uint32(nil), col[:t.nrows]...)
	}
	c.nrows = t.nrows
	return c
}

// RowKey returns an injective string encoding of row i over the given column
// positions (all columns if cols is nil), for hashing. Under the shared
// dictionary the key is the fixed-width code sequence: four bytes per
// column, no separators, comparable across tables.
func (t *Table) RowKey(i int, cols []int) string {
	if cols == nil {
		b := make([]byte, 0, 4*len(t.data))
		for _, col := range t.data {
			b = appendCodeKey(b, col[i])
		}
		return string(b)
	}
	b := make([]byte, 0, 4*len(cols))
	for _, j := range cols {
		b = appendCodeKey(b, t.data[j][i])
	}
	return string(b)
}

// IndexOn returns a persistent hash index over the given columns, building
// it on first use and caching it on the table. Cached indexes are
// maintained incrementally on Insert/InsertRow and dropped wholesale on
// Set and DeleteRows, so a lookup never serves stale rows. Tables
// produced by Rename share their source's column storage but not its
// index cache; such views must not be mutated.
// Concurrent IndexOn calls are safe; mutation requires the same external
// exclusion the table already demands.
func (t *Table) IndexOn(cols ...string) (*Index, error) {
	key := strings.Join(cols, "\x1f")
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if ix, ok := t.indexes[key]; ok {
		return ix, nil
	}
	ix, err := BuildIndex(t, cols...)
	if err != nil {
		return nil, err
	}
	if t.indexes == nil {
		t.indexes = make(map[string]*Index)
	}
	t.indexes[key] = ix
	return ix, nil
}

// IndexedColumns lists the column names of every cached persistent index
// (see IndexOn), ordered by their joined names.
func (t *Table) IndexedColumns() [][]string {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	keys := make([]string, 0, len(t.indexes))
	for k := range t.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = append([]string(nil), t.indexes[k].cols...)
	}
	return out
}

// invalidateIndexes drops the cached indexes after a mutation that moves
// or rewrites rows; they rebuild lazily on the next IndexOn.
func (t *Table) invalidateIndexes() {
	if t.indexes != nil {
		t.indexes = nil
	}
}

// CarryIndexes seeds t's persistent-index cache from old's at
// epoch-publish time. t must be a copy-on-write derivation of old (the
// writer's working copy about to replace old in the next catalog epoch).
// Append-only derivations extend each index over just the new rows; a
// derivation with old's row count carries every index whose columns
// hold the same codes in both tables as it is, sharing its buckets; any
// other index is rebuilt over the same columns. Either way the published
// table starts its epoch with warm indexes, so readers of the new epoch
// never pay a lazy rebuild, and a one-cell UPDATE rebuilds only the
// indexes over the column it changed.
func (t *Table) CarryIndexes(old *Table) {
	if old == nil || old == t || !SameSchema(old, t) {
		return
	}
	old.idxMu.Lock()
	src := make([]*Index, 0, len(old.indexes))
	for _, ix := range old.indexes {
		src = append(src, ix)
	}
	old.idxMu.Unlock()
	if len(src) == 0 {
		return
	}
	appendOnly := t.rewriteGen == old.rewriteGen && t.nrows >= old.nrows
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes == nil {
		t.indexes = make(map[string]*Index, len(src))
	}
	for _, ix := range src {
		key := strings.Join(ix.cols, "\x1f")
		if _, have := t.indexes[key]; have {
			continue
		}
		switch {
		case appendOnly:
			t.indexes[key] = ix.extendTo(t, old.nrows)
		case t.sameCodes(old, ix.colIdx):
			t.indexes[key] = ix.carry(t)
		default:
			if nix, err := BuildIndex(t, ix.cols...); err == nil {
				t.indexes[key] = nix
			}
		}
	}
}

// sameCodes reports whether t and old have the same row count and hold
// identical codes in the given columns.
func (t *Table) sameCodes(old *Table, cols []int) bool {
	if t.nrows != old.nrows {
		return false
	}
	for _, j := range cols {
		if !slices.Equal(t.data[j][:t.nrows], old.data[j][:old.nrows]) {
			return false
		}
	}
	return true
}

// Row is a lightweight accessor for one row of a table.
type Row struct {
	t *Table
	i int
}

// Get returns the value in the named column, or NULL if the column is absent.
func (r Row) Get(name string) Value {
	j := r.t.ColIndex(name)
	if j < 0 {
		return Null()
	}
	return r.t.dict.Value(r.t.data[j][r.i])
}
