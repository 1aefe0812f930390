package rel

import (
	"sort"
	"sync/atomic"
)

// Catalog is an immutable, epoch-versioned set of named tables — one
// published version of the "central database" of the paper. A catalog is
// never mutated after Build: writers derive a CatalogBuilder from the
// current epoch, install copy-on-write table snapshots into it, and
// publish the built successor atomically through a CatalogRef. Readers
// load (pin) one catalog pointer for the duration of a statement and see
// a torn-free view no matter how many epochs writers publish meanwhile —
// the MVCC snapshot-isolation primitive under sqlmini's concurrent
// sessions and the coherdb server mode.
type Catalog struct {
	epoch     uint64
	schemaGen uint64
	tables    map[string]*Table
	names     []string // sorted; shared, read-only
	fp        uint64
}

// emptyCatalog is the epoch-0 root every CatalogRef starts from.
var emptyCatalog = func() *Catalog {
	c := &Catalog{tables: map[string]*Table{}}
	c.fp = c.fingerprint()
	return c
}()

// Epoch returns the catalog's version number: 0 for the empty root, and
// one more than its base for every catalog built through Derive.
func (c *Catalog) Epoch() uint64 { return c.epoch }

// Fingerprint identifies the catalog's schema shape for plan-cache
// keying: it folds the schema generation with every table's name and
// column list. Dropping and re-creating an identically-shaped table
// yields a different fingerprint (the generation moved), so a cached
// plan can never be served across a DDL boundary.
func (c *Catalog) Fingerprint() uint64 { return c.fp }

// Table returns the named table of this epoch. The returned table is a
// published snapshot: treat it as immutable.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// Names returns the sorted table names. The slice is shared: read-only.
func (c *Catalog) Names() []string { return c.names }

// Len returns the number of tables.
func (c *Catalog) Len() int { return len(c.tables) }

// fingerprint hashes the schema generation plus every (name, columns)
// pair, in sorted name order, with the shared FNV-1a helper.
func (c *Catalog) fingerprint() uint64 {
	var buf []byte
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(c.schemaGen>>(8*i)))
	}
	for _, n := range c.names {
		buf = append(buf, n...)
		buf = append(buf, 0x1f)
		for _, col := range c.tables[n].ColumnsRef() {
			buf = append(buf, col...)
			buf = append(buf, 0x1e)
		}
	}
	return HashBytes(buf)
}

// Derive starts building the next epoch off this catalog.
func (c *Catalog) Derive() *CatalogBuilder {
	b := &CatalogBuilder{
		base:      c,
		tables:    make(map[string]*Table, len(c.tables)+1),
		schemaGen: c.schemaGen,
	}
	for n, t := range c.tables {
		b.tables[n] = t
	}
	return b
}

// SameSchema reports whether two tables have the same column list in the
// same order.
func SameSchema(a, b *Table) bool {
	if a.NumCols() != b.NumCols() {
		return false
	}
	for i, col := range a.ColumnsRef() {
		if b.ColIndex(col) != i {
			return false
		}
	}
	return true
}

// CatalogBuilder accumulates one epoch's worth of changes. It is not safe
// for concurrent use; writers serialize externally (sqlmini.DB's writer
// lock) and publish the Build result through a CatalogRef.
type CatalogBuilder struct {
	base      *Catalog
	tables    map[string]*Table
	schemaGen uint64
}

// Put installs (or replaces) a table under its own name. The schema
// generation advances only when the name is new or the column list
// changed; replacing a table with an identically-shaped revision — the
// pipeline does this on every protocol revision, and every DML statement
// does it per epoch — keeps every cached plan.
func (b *CatalogBuilder) Put(t *Table) {
	if old, ok := b.tables[t.Name()]; !ok || !SameSchema(old, t) {
		b.schemaGen++
	}
	b.tables[t.Name()] = t
}

// Drop removes the named table, reporting whether it existed.
func (b *CatalogBuilder) Drop(name string) bool {
	if _, ok := b.tables[name]; !ok {
		return false
	}
	delete(b.tables, name)
	b.schemaGen++
	return true
}

// BumpSchema forces a schema-generation advance without a table change —
// for catalog-adjacent invalidations that cached plans specialize on,
// such as (re)binding a SQL-callable function.
func (b *CatalogBuilder) BumpSchema() { b.schemaGen++ }

// Table returns the named table as the builder currently sees it.
func (b *CatalogBuilder) Table(name string) (*Table, bool) {
	t, ok := b.tables[name]
	return t, ok
}

// Build freezes the builder into the successor catalog: epoch base+1,
// sorted names, and the schema fingerprint. A builder whose schema
// generation did not move — no new name, no new shape, no Drop, no
// BumpSchema, which is every DML epoch — has the base's names and
// fingerprint, so it reuses them instead of re-sorting and rehashing.
func (b *CatalogBuilder) Build() *Catalog {
	c := &Catalog{
		epoch:     b.base.epoch + 1,
		schemaGen: b.schemaGen,
		tables:    b.tables,
	}
	if b.schemaGen == b.base.schemaGen {
		c.names, c.fp = b.base.names, b.base.fp
	} else {
		c.names = make([]string, 0, len(b.tables))
		for n := range b.tables {
			c.names = append(c.names, n)
		}
		sort.Strings(c.names)
		c.fp = c.fingerprint()
	}
	b.tables = nil // the builder is spent; the catalog owns the map
	return c
}

// CatalogRef is the atomically published current catalog: readers Load
// (pin) an epoch wait-free, writers CompareAndSwap their built successor
// in. The zero value points at the empty epoch-0 catalog.
type CatalogRef struct {
	p atomic.Pointer[Catalog]
}

// Load returns the current catalog; never nil.
func (r *CatalogRef) Load() *Catalog {
	if c := r.p.Load(); c != nil {
		return c
	}
	return emptyCatalog
}

// CompareAndSwap publishes next iff the current catalog is still old —
// the writer's epoch handshake. Writers that lost the race re-derive
// from the new current epoch and retry.
func (r *CatalogRef) CompareAndSwap(old, next *Catalog) bool {
	if r.p.CompareAndSwap(old, next) {
		return true
	}
	// The zero ref aliases emptyCatalog through Load; treat a first
	// publish over a nil pointer as swapping from the empty root.
	if old == emptyCatalog {
		return r.p.CompareAndSwap(nil, next)
	}
	return false
}
