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
	idx map[VKey]string
}

// NewAssignment wraps a V table (columns m, s, d, v).
func NewAssignment(v *rel.Table) (*Assignment, error) {
	for _, c := range []string{"m", "s", "d", "v"} {
		if !v.HasColumn(c) {
			return nil, fmt.Errorf("%w: missing column %q", ErrBadAssignment, c)
		}
	}
	a := &Assignment{idx: make(map[VKey]string, v.NumRows())}
	for i := 0; i < v.NumRows(); i++ {
		k := VKey{M: v.Get(i, "m").Str(), S: v.Get(i, "s").Str(), D: v.Get(i, "d").Str()}
		if k.M == "" || k.S == "" || k.D == "" || v.Get(i, "v").IsNull() {
			return nil, fmt.Errorf("%w: row %d has empty fields", ErrBadAssignment, i)
		}
		if prev, dup := a.idx[k]; dup && prev != v.Get(i, "v").Str() {
			return nil, fmt.Errorf("%w: %v assigned to both %s and %s", ErrBadAssignment, k, prev, v.Get(i, "v").Str())
		}
		a.idx[k] = v.Get(i, "v").Str()
	}
	return a, nil
}

// Channel returns the channel assigned to (m, s, d), or "" if the hop is
// not a tracked channel resource.
func (a *Assignment) Channel(m, s, d string) string {
	return a.idx[VKey{M: m, S: s, D: d}]
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

// Apply substitutes a role.
func (p Placement) Apply(role string) string {
	if r, ok := p.Subst[role]; ok {
		return r
	}
	return role
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
