// Package deadlock implements the paper's §4.1 SQL-based deadlock
// detection: given the controller tables and a virtual channel assignment V,
// it builds per-controller channel dependency tables, composes them
// pairwise under the five quad-placement relations (with the
// message-agnostic relaxation for transaction interleavings), forms the
// protocol dependency table — the virtual channel dependency graph VCG in
// tabular form — and reports its cycles. An absence of cycles establishes
// absence of channel-resource deadlocks [Dally-Seitz].
package deadlock

import (
	"errors"
	"fmt"

	"coherdb/internal/rel"
)

// Errors returned by the analyzer.
var (
	ErrBadAssignment = errors.New("deadlock: malformed channel assignment table")
	ErrBadController = errors.New("deadlock: malformed controller table")
)

// VKey identifies one channel assignment: message, source role,
// destination role.
type VKey struct {
	M, S, D string
}

// Assignment is the channel assignment V (§4.1): "a database table with 4
// columns — m, s, d, v — where m is a message from source s to destination
// d and is sent over virtual channel v". Messages without an assignment
// travel over dedicated or node-internal paths and induce no dependencies.
type Assignment struct {
	// vc maps a (message, source, destination) code triple to its
	// channel's code; rel.NullCode marks a hop that is not a tracked
	// channel resource.
	vc map[[3]uint32]uint32
}

// NewAssignment wraps a V table (columns m, s, d, v). A v cell that is not
// a non-empty string leaves its hop untracked.
func NewAssignment(v *rel.Table) (*Assignment, error) {
	var cols [4][]uint32
	for j, c := range []string{"m", "s", "d", "v"} {
		k := v.ColIndex(c)
		if k < 0 {
			return nil, fmt.Errorf("%w: missing column %q", ErrBadAssignment, c)
		}
		cols[j] = v.ColCodes(k)
	}
	str := func(c uint32) string { return v.Dict().Value(c).Str() }
	a := &Assignment{vc: make(map[[3]uint32]uint32, v.NumRows())}
	for i := 0; i < v.NumRows(); i++ {
		k := [3]uint32{cols[0][i], cols[1][i], cols[2][i]}
		vc := cols[3][i]
		if str(k[0]) == "" || str(k[1]) == "" || str(k[2]) == "" || vc == rel.NullCode {
			return nil, fmt.Errorf("%w: row %d has empty fields", ErrBadAssignment, i)
		}
		if str(vc) == "" {
			vc = rel.NullCode
		}
		if prev, dup := a.vc[k]; dup && prev != vc {
			return nil, fmt.Errorf("%w: %v assigned to both %s and %s", ErrBadAssignment,
				VKey{M: str(k[0]), S: str(k[1]), D: str(k[2])}, str(prev), str(vc))
		}
		a.vc[k] = vc
	}
	return a, nil
}

// Placement is one of the five quad-placement relations of §4.1: a
// substitution over the node roles induced by which of local (L), home (H)
// and remote (R) share a quad. Substitution is applied to the role fields
// of dependency assignments after channels are assigned: co-located roles
// share physical channels, so their names are identified.
type Placement struct {
	Name  string
	Subst map[string]string
}

// Placements returns the five quad-placement relations: L≠H≠R (identity),
// L=H≠R, L≠H=R, L=R≠H and L=H=R.
func Placements() []Placement {
	return []Placement{
		{Name: "L!=H!=R", Subst: map[string]string{}},
		{Name: "L=H!=R", Subst: map[string]string{"local": "home"}},
		{Name: "L!=H=R", Subst: map[string]string{"remote": "home"}},
		{Name: "L=R!=H", Subst: map[string]string{"remote": "local"}},
		{Name: "L=H=R", Subst: map[string]string{"local": "home", "remote": "home"}},
	}
}
