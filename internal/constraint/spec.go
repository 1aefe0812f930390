// Package constraint implements the paper's column-constraint language and
// table generation (§3): a controller table is described by one column table
// per column (the legal values, plus NULL meaning dontcare for inputs and
// noop for outputs) and one boolean constraint per column. Solving the
// conjunction of the column constraints yields the controller table — the
// set of all satisfying assignments, one row per assignment.
//
// Two solvers are provided. Solve is the incremental algorithm the paper
// deploys: columns are added one at a time and every constraint is applied
// as soon as the columns it mentions are all present, so pruning happens
// early and intermediate relations stay small ("a few minutes"). MonolithicOpts
// enumerates the full cross product and tests the whole conjunction only on
// complete assignments — the paper's "around 6 hours" baseline — and is
// exponential in the number of columns.
package constraint

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Errors returned by spec construction and solving.
var (
	ErrDupColumn   = errors.New("constraint: duplicate column")
	ErrNoColumn    = errors.New("constraint: no such column")
	ErrEmptyDomain = errors.New("constraint: column has empty domain")
	ErrSpaceLimit  = errors.New("constraint: monolithic search space exceeds limit")
)

// ColumnKind distinguishes the input columns of a controller state machine
// from its output columns.
type ColumnKind uint8

// Column kinds.
const (
	Input ColumnKind = iota
	Output
)

func (k ColumnKind) String() string {
	if k == Input {
		return "input"
	}
	return "output"
}

// Column is one column of a controller table: its name, kind, and legal
// value domain. NULL is always a member of the domain (dontcare/noop) unless
// NoNull is set.
type Column struct {
	Name   string
	Kind   ColumnKind
	Values []string
	NoNull bool
}

// Domain returns the column table: the legal values of the column, with
// NULL first unless suppressed.
func (c Column) Domain() []rel.Value {
	out := make([]rel.Value, 0, len(c.Values)+1)
	if !c.NoNull {
		out = append(out, rel.Null())
	}
	for _, v := range c.Values {
		out = append(out, rel.S(v))
	}
	return out
}

// Spec is a controller table specification: ordered columns and one
// constraint per column. It corresponds to the paper's "database input":
// table schema, column tables, and SQL column constraints.
type Spec struct {
	Name        string
	cols        []Column
	colIdx      map[string]int
	constraints map[string]sqlmini.Expr
	funcs       map[string]sqlmini.Func

	// Compiled-kernel cache: the column constraints lowered to position-
	// bound programs, built lazily on first solve and reused until the spec
	// changes. Guarded by mu so concurrent solves of one spec share it.
	mu       sync.Mutex
	compiled []compiledConstraint

	// Incremental-solve bookkeeping: genCtr is a monotone mutation stamp;
	// conGen records the stamp of the last Constrain per column and funcGen
	// the stamp of the last RegisterFunc. IncrementalSolver memo entries
	// key on these, so a re-constrained column dirties exactly the steps
	// its constraint fires at, while a re-registered function (whose
	// behavior the solver cannot inspect) dirties everything.
	genCtr  uint64
	conGen  map[string]uint64
	funcGen uint64
}

// NewSpec creates an empty specification for a controller table.
func NewSpec(name string) *Spec {
	return &Spec{
		Name:        name,
		colIdx:      make(map[string]int),
		constraints: make(map[string]sqlmini.Expr),
		funcs:       make(map[string]sqlmini.Func),
		conGen:      make(map[string]uint64),
	}
}

// AddInput declares an input column with the given legal values.
func (s *Spec) AddInput(name string, values ...string) error {
	return s.add(Column{Name: name, Kind: Input, Values: values})
}

// AddOutput declares an output column with the given legal values.
func (s *Spec) AddOutput(name string, values ...string) error {
	return s.add(Column{Name: name, Kind: Output, Values: values})
}

// AddColumn declares a fully specified column.
func (s *Spec) AddColumn(c Column) error { return s.add(c) }

func (s *Spec) add(c Column) error {
	if _, dup := s.colIdx[c.Name]; dup {
		return fmt.Errorf("%w: %q in spec %q", ErrDupColumn, c.Name, s.Name)
	}
	if len(c.Values) == 0 && c.NoNull {
		return fmt.Errorf("%w: %q in spec %q", ErrEmptyDomain, c.Name, s.Name)
	}
	s.colIdx[c.Name] = len(s.cols)
	s.cols = append(s.cols, c)
	s.invalidate()
	return nil
}

// invalidate drops the compiled-kernel cache after a spec mutation.
func (s *Spec) invalidate() {
	s.mu.Lock()
	s.compiled = nil
	s.mu.Unlock()
}

// Columns returns the declared columns in order (inputs and outputs
// interleaved as declared).
func (s *Spec) Columns() []Column { return append([]Column(nil), s.cols...) }

// ColumnNames returns the declared column names in order.
func (s *Spec) ColumnNames() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// InputNames returns the input column names in declaration order.
func (s *Spec) InputNames() []string {
	var out []string
	for _, c := range s.cols {
		if c.Kind == Input {
			out = append(out, c.Name)
		}
	}
	return out
}

// HasColumn reports whether name is declared.
func (s *Spec) HasColumn(name string) bool {
	_, ok := s.colIdx[name]
	return ok
}

// RegisterFunc makes fn callable from constraints (e.g. isrequest).
func (s *Spec) RegisterFunc(name string, fn sqlmini.Func) {
	s.funcs[name] = fn
	s.genCtr++
	s.funcGen = s.genCtr
	s.invalidate()
}

// Constrain attaches the column constraint for col, given in the paper's
// dialect: a (possibly ternary) boolean expression over column names and
// bare symbolic values, e.g.
//
//	inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL
//
// Bare identifiers that are not column names are resolved to string values.
// A column with no constraint is unconstrained (constraint true).
func (s *Spec) Constrain(col, expr string) error {
	if !s.HasColumn(col) {
		return fmt.Errorf("%w: %q in spec %q", ErrNoColumn, col, s.Name)
	}
	// The constraint vocabulary is fixed per protocol and re-parsed on
	// every solver run; the cached parse shares an immutable tree, and
	// ResolveSymbols copies rather than mutates the nodes it rewrites.
	e, err := sqlmini.ParseExprCached(expr)
	if err != nil {
		return fmt.Errorf("constraint for %s.%s: %w", s.Name, col, err)
	}
	return s.ConstrainExpr(col, e)
}

// ConstrainExpr is Constrain for an already parsed expression, such as a
// rule chain assembled from shared condition trees. Bare identifiers are
// resolved as in Constrain; a tree that is already resolved is stored as
// given, so its nodes stay shared. The tree must not be mutated afterwards.
func (s *Spec) ConstrainExpr(col string, e sqlmini.Expr) error {
	if !s.HasColumn(col) {
		return fmt.Errorf("%w: %q in spec %q", ErrNoColumn, col, s.Name)
	}
	// Every name must be a column once bare symbols are resolved to
	// values (qualified references are not part of the constraint
	// dialect). A tree whose every name is already a column, such as a
	// protocol builder's rule chain, is stored as it is after one walk.
	missing := ""
	check := func(ref string) {
		if missing == "" && !s.HasColumn(ref) {
			missing = ref
		}
	}
	if sqlmini.VisitColumns(e, check); missing != "" {
		missing = ""
		e = sqlmini.ResolveSymbols(e, s.HasColumn)
		sqlmini.VisitColumns(e, check)
	}
	if missing != "" {
		return fmt.Errorf("%w: constraint for %s.%s references %q", ErrNoColumn, s.Name, col, missing)
	}
	s.constraints[col] = e
	s.genCtr++
	s.conGen[col] = s.genCtr
	s.invalidate()
	return nil
}

// MustConstrain is Constrain that panics on error; for statically known
// protocol specs.
func (s *Spec) MustConstrain(col, expr string) {
	if err := s.Constrain(col, expr); err != nil {
		panic(err)
	}
}

// Constraint returns the parsed constraint for col, or nil if the column is
// unconstrained.
func (s *Spec) Constraint(col string) sqlmini.Expr { return s.constraints[col] }

// ConstraintCount returns the number of attached constraints.
func (s *Spec) ConstraintCount() int { return len(s.constraints) }

// SpaceSize returns the size of the full assignment space (the product of
// the domain sizes), saturating at 2^62 to avoid overflow.
func (s *Spec) SpaceSize() uint64 {
	const sat = uint64(1) << 62
	size := uint64(1)
	for _, c := range s.cols {
		d := uint64(len(c.Domain()))
		if d == 0 {
			return 0
		}
		if size > sat/d {
			return sat
		}
		size *= d
	}
	return size
}

// evaluator builds the expression evaluator for this spec (constraint
// dialect: NULL is an ordinary domain value).
func (s *Spec) evaluator() *sqlmini.Evaluator {
	return &sqlmini.Evaluator{Funcs: s.funcs, NullEq: true}
}

// compiledConstraint is one column constraint lowered for the solver,
// plus its scheduling metadata: the column positions it reads and the
// step at which it becomes checkable.
type compiledConstraint struct {
	col string
	// sweep holds the selection-vector predicates that decide a group's
	// whole domain of the fire column per call. For a family member (fam
	// set) they are the member's distinct then and else branches and
	// branch[arm] indexes the one taken by the arm the family's Selector
	// picked for the group (in one batch, before the sweep); any other
	// constraint compiles whole into sweep[0].
	sweep  []*sqlmini.VecPred
	fam    *family
	branch []int32
	refs   []int // column positions the constraint reads, own column included
	fire   int   // max referenced position: the step the constraint fires at
}

// compiledConstraints lowers every column constraint for the solver,
// cached on the spec until the next mutation. Each constraint fires at the
// step that adds the last column it reads, where the incremental solver
// decides each group's whole domain in one batch of selection-vector
// kernels (see evalGroups); rule chains that share their leading
// conditions form families (see family.go) that compile those conditions
// once. The returned slice, ordered by fire step and then
// column, is shared and must not be mutated.
func (s *Spec) compiledConstraints() ([]compiledConstraint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compiled != nil {
		return s.compiled, nil
	}
	cols := make([]string, 0, len(s.constraints))
	for col := range s.constraints {
		cols = append(cols, col)
	}
	// Column order makes the families, and the output order, independent
	// of map iteration.
	sort.Strings(cols)
	w := newChainScan(s)
	out := make([]compiledConstraint, 0, len(cols))
	for _, col := range cols {
		cc, err := w.compile(col, s.constraints[col])
		if err != nil {
			return nil, err
		}
		out = append(out, cc)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].fire < out[j].fire })
	s.compiled = out
	return out, nil
}
