package sqlmini

import "coherdb/internal/pool"

// Test-only API. No binary needs these, so they live beside the tests that
// drive the engine with them; the external test package sees them too.

// SetPool replaces the DB's worker pool (nil restores the shared pool), so
// a test can force the parallel path with more workers than the host has
// CPUs.
func (db *DB) SetPool(p *pool.Pool) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	if p == nil {
		p = pool.Shared()
	}
	db.exec = p
}

// ExecScript runs the statements of src in order through Exec, stopping at
// the first error.
func (db *DB) ExecScript(src string) error {
	stmts, err := ParseScript(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if s.Err != nil {
			return s.Err
		}
		if _, err := db.Exec(s.Text); err != nil {
			return err
		}
	}
	return nil
}

// Columns returns the set of column names e references.
func Columns(e Expr) map[string]struct{} {
	out := make(map[string]struct{})
	VisitColumns(e, func(name string) { out[name] = struct{}{} })
	return out
}
