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

// RowTrue runs vp on one code row as a batch of one lane, the shape an
// INSERT value and a memo miss take, and reports whether the row is kept.
func RowTrue(vp *VecPred, crow []uint32) (bool, error) {
	cols := make([][]uint32, len(crow))
	for j := range crow {
		cols[j] = crow[j : j+1]
	}
	kept, err := vp.EvalVec(cols, []uint32{0})
	return len(kept) == 1, err
}

// Columns returns the set of column names e references.
func Columns(e Expr) map[string]struct{} {
	out := make(map[string]struct{})
	VisitColumns(e, func(name string) { out[name] = struct{}{} })
	return out
}

// SweepLanes runs vp as the constraint solver decides one group's domain:
// the batch has one lane per domain value, column sweep's vector is the
// domain, every other column repeats crow's code across the lanes, and
// the selection starts as every lane. keep[i] reports whether lane i
// survived.
func SweepLanes(vp *VecPred, crow []uint32, sweep int, domain []uint32) (keep []bool, err error) {
	cols := make([][]uint32, len(crow))
	for j, c := range crow {
		cols[j] = domain
		if j != sweep {
			cols[j] = make([]uint32, len(domain))
			for i := range cols[j] {
				cols[j][i] = c
			}
		}
	}
	sel := make([]uint32, len(domain))
	for i := range sel {
		sel[i] = uint32(i)
	}
	kept, err := vp.EvalVec(cols, sel)
	if err != nil {
		return nil, err
	}
	keep = make([]bool, len(domain))
	for _, i := range kept {
		keep[i] = true
	}
	return keep, nil
}
