package sqlmini

import "coherdb/internal/delta"

// Revision is an open edit scope over a catalog view — the whole DB, or
// one Session's overlay-plus-shared view: BeginRevision baselines every
// table (copy-on-write snapshots plus revision counters), the caller
// applies edits — SQL DML, or direct rel.Table mutations — and Commit
// returns exactly what changed as a *delta.Set, re-baselining so the same
// Revision serves the next round of edits. This is the primitive behind
// the cohergen/cohercheck -incremental loops and the server's per-session
// \recheck: edit, Commit, hand the delta to check.Suite.RunDelta /
// deadlock.Analyze, repeat.
//
// The snapshot fast path makes an idle Commit O(tables): unchanged tables
// are recognized by pointer identity and revision number without touching
// their data. Under MVCC that identity is exactly right: an epoch that
// left a table alone shares its pointer, while a committed DML statement
// published a new one. Baselining and committing must not race with the
// view's own edits; run them from the owning goroutine.
type Revision struct {
	src delta.Catalog
	tr  *delta.Tracker
}

// beginRevision baselines any catalog view (the DB itself, or a Session).
func beginRevision(src delta.Catalog) *Revision {
	r := &Revision{src: src, tr: delta.NewTracker()}
	r.tr.Capture(src)
	return r
}

// BeginRevision captures the current state of every table and returns the
// open revision scope.
func (db *DB) BeginRevision() *Revision {
	return beginRevision(db)
}

// Commit returns the delta from the last baseline (BeginRevision or the
// previous Commit) to the current state, then re-baselines.
func (r *Revision) Commit() *delta.Set {
	return r.tr.DiffAndCapture(r.src)
}
