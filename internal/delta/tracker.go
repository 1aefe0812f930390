package delta

import "coherdb/internal/rel"

// Catalog is the table source a Tracker watches. *sqlmini.DB satisfies it;
// so does any map-backed test double.
type Catalog interface {
	// Names returns the catalog's table names.
	Names() []string
	// Table returns the named table and whether it exists.
	Table(name string) (*rel.Table, bool)
}

// Tracker captures a baseline of a catalog — copy-on-write snapshots plus
// each live table's rel.Version — and diffs the live catalog against it.
// Capture costs O(tables × cols); a diff costs O(1) per unchanged table
// (pointer identity + revision compare, no data access) and a real
// rel.DiffCodes only for tables that mutated, were replaced, created, or
// dropped.
//
// A Tracker must not race with writers: capture and diff inside whatever
// exclusion the catalog's mutations already require (sqlmini.DB's revision
// API handles this for its own catalog).
type Tracker struct {
	snaps map[string]*rel.Table  // frozen snapshot at capture
	vers  map[string]rel.Version // live table's state at capture
}

// NewTracker returns a tracker with no baseline; DiffAndCapture before
// the first Capture returns a full delta for every table.
func NewTracker() *Tracker {
	return &Tracker{
		snaps: make(map[string]*rel.Table),
		vers:  make(map[string]rel.Version),
	}
}

// Capture (re-)baselines the tracker against the catalog's current state.
func (tr *Tracker) Capture(c Catalog) {
	clear(tr.snaps)
	clear(tr.vers)
	for _, name := range c.Names() {
		if t, ok := c.Table(name); ok {
			tr.capture(name, t)
		}
	}
}

// capture baselines one table.
func (tr *Tracker) capture(name string, t *rel.Table) {
	tr.snaps[name] = t.Snapshot()
	tr.vers[name] = t.Version()
}

// DiffAndCapture returns the delta from the captured baseline to the
// catalog's current state and re-baselines in the same pass — the
// edit-loop primitive: each call returns what the edits since the
// previous call changed. Only the tables that changed, were created or
// were dropped are re-captured. Each rel.TableDelta's OldVersion is the
// live table's state at capture (zero for a created table), not its
// snapshot's, so a consumer can tell whether what it computed at that
// state is what the delta starts from; a table that moved to a new
// version with the same rows (a no-op UPDATE, a copy) leaves an empty
// delta that only Set.Table returns.
func (tr *Tracker) DiffAndCapture(c Catalog) *Set {
	s := NewSet()
	base, kept := len(tr.snaps), 0 // baselined tables, and those still in c
	for _, name := range c.Names() {
		cur, ok := c.Table(name)
		if !ok {
			continue
		}
		snap, had := tr.snaps[name]
		var td *rel.TableDelta
		switch {
		case !had:
			// Created since capture: everything is added.
			td = rel.DiffCodes(emptyLike(cur), cur)
		case tr.vers[name] == cur.Version():
			kept++
			continue // same object, same revision: provably unchanged
		default:
			kept++
			td = rel.DiffCodes(snap, cur)
		}
		td.OldVersion = tr.vers[name]
		s.Add(td)
		tr.capture(name, cur)
	}
	if kept == base {
		return s // nothing dropped
	}
	seen := make(map[string]bool, len(tr.snaps))
	for _, name := range c.Names() {
		if _, ok := c.Table(name); ok {
			seen[name] = true
		}
	}
	for name, snap := range tr.snaps {
		if seen[name] {
			continue
		}
		// Dropped since capture: everything is removed.
		td := rel.DiffCodes(snap, emptyLike(snap))
		td.OldVersion, td.NewVersion = tr.vers[name], rel.Version{}
		s.Add(td)
		delete(tr.snaps, name)
		delete(tr.vers, name)
	}
	return s
}

// emptyLike returns a rowless table with t's schema, for diffing created
// and dropped tables.
func emptyLike(t *rel.Table) *rel.Table {
	return rel.MustNewTable(t.Name(), t.ColumnsRef()...)
}
