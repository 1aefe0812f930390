// Package delta tracks what changed between protocol revisions and which
// downstream consumers that forces to re-run. It is the engine's version of
// the paper's incremental-≪-monolithic argument (§3): a protocol edit
// touches a handful of rows, so re-verification should cost O(delta), not
// O(protocol).
//
// The package has three pieces:
//
//   - Set: the per-table rel.TableDelta collection for one revision step,
//     answering "did table T change?" and "did columns C of T change?".
//   - Graph: a dependency graph from source tables (and the columns a
//     consumer actually reads, extracted from planner column bindings or
//     constraint.Spec inputs) to named consumer nodes — invariants, solver
//     specs, deadlock analyses, hwmap reconstructions. Dirty(set) names the
//     nodes whose inputs intersect the delta.
//   - Tracker: captures copy-on-write snapshots plus revision counters of a
//     catalog's tables and diffs them against the live state. Unchanged
//     tables are detected by pointer identity plus revision number in O(1);
//     only mutated tables pay for a real diff.
//
// delta deliberately imports only rel (and obs for its counters):
// sqlmini, check, deadlock, and hwmap all import delta, and sqlmini's
// BeginRevision/Commit wraps a Tracker around its own catalog.
package delta

import (
	"fmt"
	"strings"

	"coherdb/internal/rel"
)

// Set is the collection of table deltas produced by one revision step.
// Tables with no entry are untouched. The zero value is unusable; use
// NewSet or Tracker.Diff.
type Set struct {
	byTable map[string]*rel.TableDelta
	order   []string // insertion order for deterministic iteration
	// same holds the empty deltas of tables that moved to a new version
	// with the same rows in the same order, for Table: a consumer carries
	// what it computed at the old version to the new one.
	same map[string]*rel.TableDelta
}

// NewSet returns an empty delta set.
func NewSet() *Set {
	return &Set{byTable: make(map[string]*rel.TableDelta)}
}

// Add records a table's delta. Empty deltas are kept out of the set so
// that Touches(table) stays an exact "something changed" test; one
// between two versions is kept aside for Table.
func (s *Set) Add(d *rel.TableDelta) {
	if d.Empty() {
		if d.OldVersion != d.NewVersion {
			if s.same == nil {
				s.same = make(map[string]*rel.TableDelta)
			}
			s.same[d.Table] = d
		}
		return
	}
	if _, dup := s.byTable[d.Table]; !dup {
		s.order = append(s.order, d.Table)
	}
	s.byTable[d.Table] = d
}

// Touches reports whether any of the named columns of the table changed.
// A nil Set conservatively reports true; an untouched table reports false
// regardless of columns; nil cols means "any column".
func (s *Set) Touches(table string, cols ...string) bool {
	if s == nil {
		return true
	}
	d, ok := s.byTable[table]
	if !ok {
		return false
	}
	if len(cols) == 0 {
		return true
	}
	return d.Touches(cols...)
}

// Table returns the named table's delta: nil when the table is
// untouched (or the Set is nil), and an empty delta when it only moved
// to a new version with the same rows.
func (s *Set) Table(name string) *rel.TableDelta {
	if s == nil {
		return nil
	}
	if d, ok := s.byTable[name]; ok {
		return d
	}
	return s.same[name]
}

// Rows returns the total delta size across tables: Σ |Added| + |Removed|.
func (s *Set) Rows() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, d := range s.byTable {
		n += d.Rows()
	}
	return n
}

// String renders the set compactly for edit-loop diagnostics, e.g.
// "D{dirpv +1/-1} M{* +2/-0}" ("*" marks a schema change).
func (s *Set) String() string {
	if s == nil {
		return "<no delta>"
	}
	if len(s.byTable) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	for i, name := range s.order {
		d := s.byTable[name]
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name)
		b.WriteByte('{')
		if d.SchemaChanged {
			b.WriteByte('*')
		} else {
			touched := make([]string, 0, len(d.Cols))
			for j, hit := range d.ColTouched {
				if hit {
					touched = append(touched, d.Cols[j])
				}
			}
			b.WriteString(strings.Join(touched, ","))
		}
		fmt.Fprintf(&b, " +%d/-%d}", len(d.Added), len(d.Removed))
	}
	return b.String()
}

// Input names one dependency of a consumer node: a table and the columns
// the node reads from it. Nil Cols means the node depends on the whole
// table (any change re-runs it).
type Input struct {
	Table string
	Cols  []string
}

// Graph maps named consumer nodes — invariants, constraint specs, deadlock
// analyses, hwmap reconstructions — to the table columns they read. It is
// built once (from planner column bindings and spec inputs) and queried per
// revision. Not safe for concurrent mutation.
type Graph struct {
	inputs map[string][]Input
	order  []string
}

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph {
	return &Graph{inputs: make(map[string][]Input)}
}

// Add registers (or extends) a node's inputs.
func (g *Graph) Add(node string, inputs ...Input) {
	if _, ok := g.inputs[node]; !ok {
		g.order = append(g.order, node)
	}
	g.inputs[node] = append(g.inputs[node], inputs...)
}

// Inputs returns a node's registered inputs (nil for unknown nodes).
func (g *Graph) Inputs(node string) []Input { return g.inputs[node] }

// DirtyInputs reports whether any input intersects the delta — the shared
// predicate for graph nodes and for consumers that keep their own input
// lists (check.Suite, deadlock.Analyze).
func DirtyInputs(s *Set, inputs []Input) bool {
	if s == nil {
		return true
	}
	for _, in := range inputs {
		if s.Touches(in.Table, in.Cols...) {
			return true
		}
	}
	return false
}
