package sqlmini

import (
	"sort"
	"strings"

	"coherdb/internal/rel"
)

// Session is one client's view of a DB: the shared MVCC catalog plus a
// private overlay of session-local tables. Every statement a session runs
// pins one published epoch, so concurrent sessions read consistent
// snapshots without blocking the writer; DML against shared tables goes
// through the DB's single-writer epoch-publish path, while CREATE/DROP
// and DML against shadowed names stay entirely inside the overlay.
//
// Sessions carry their own prepared statements, an optional NULL-dialect
// pin, and delta Revision brackets (BeginRevision) over their view, which
// is what per-session -incremental re-checking in the server is built on.
//
// A Session is owned by one client: its methods must not be called
// concurrently with each other (the server runs one command at a time per
// session). Different sessions are fully concurrent.
type Session struct {
	db *DB
	id uint64
	// overlay holds session-local tables, shadowing shared names.
	overlay map[string]*rel.Table
	// gen counts overlay DDL (CREATE/DROP); it splits the session's
	// plan-cache keys from the shared ones whenever the overlay is
	// non-empty (see sessionFP).
	gen uint64
}

// NewSession opens a session over the DB's shared catalog.
func (db *DB) NewSession() *Session {
	db.sessMu.Lock()
	db.nextSession++
	id := db.nextSession
	db.sessMu.Unlock()
	return &Session{db: db, id: id, overlay: make(map[string]*rel.Table)}
}

// ID returns the session's number, used for obs attribution (QueryLog
// records and sql.stmt spans carry it).
func (s *Session) ID() uint64 { return s.id }

// Close drops the session's overlay tables. The session must not be used
// afterwards.
func (s *Session) Close() {
	s.overlay = nil
}

// Exec executes a single statement in the session, parsing it through the
// shared plan cache under the session's fingerprint.
func (s *Session) Exec(src string) (*Result, error) {
	entry, hit, err := s.db.lookupPlan(src, s.db.planFP(s))
	if err != nil {
		return nil, err
	}
	pc := "miss"
	if hit {
		pc = "hit"
	}
	return s.db.execute(entry.stmt, execOpts{entry: entry, src: strings.TrimSpace(src), planCache: pc, sess: s})
}

// Query executes a SELECT and returns the result table.
func (s *Session) Query(src string) (*rel.Table, error) {
	res, err := s.Exec(src)
	if err != nil {
		return nil, err
	}
	if res.Table == nil {
		return nil, errNotQuery(strings.TrimSpace(src))
	}
	return res.Table, nil
}

// Prepare parses src (through the shared plan cache) and returns a handle
// bound to this session: executions resolve names through the overlay and
// carry the session's obs attribution.
func (s *Session) Prepare(src string) (*Prepared, error) {
	entry, _, err := s.db.lookupPlan(src, s.db.planFP(s))
	if err != nil {
		return nil, err
	}
	return &Prepared{db: s.db, sess: s, src: strings.TrimSpace(src), entry: entry}, nil
}

// shadows reports whether the session overlay holds name.
func (s *Session) shadows(name string) bool {
	_, ok := s.overlay[name]
	return ok
}

// Table returns the named table as the session sees it right now: the
// overlay shadow if present, else the current shared epoch's table.
func (s *Session) Table(name string) (*rel.Table, bool) {
	if t, ok := s.overlay[name]; ok {
		return t, true
	}
	return s.db.Table(name)
}

// Names returns the sorted table names of the session's view (overlay
// union shared).
func (s *Session) Names() []string {
	cat := s.db.Catalog()
	out := make([]string, 0, cat.Len()+len(s.overlay))
	out = append(out, cat.Names()...)
	for n := range s.overlay {
		if _, dup := cat.Table(n); !dup {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// BeginRevision opens a delta bracket over the session's view: shared
// tables and overlay shadows alike are baselined, so a later Commit
// reports exactly what changed — this session's local edits and other
// sessions' published epochs both — which is what the per-session
// incremental re-check loop feeds to check.Suite.RunDelta.
func (s *Session) BeginRevision() *Revision {
	return beginRevision(s)
}
