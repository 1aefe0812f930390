package sqlmini

import (
	"errors"
	"fmt"

	"coherdb/internal/rel"
)

// Errors returned by expression evaluation.
var (
	ErrUnknownColumn = errors.New("sqlmini: unknown column")
	ErrUnknownFunc   = errors.New("sqlmini: unknown function")
	ErrType          = errors.New("sqlmini: type error")
)

// Func is a registered scalar function callable from SQL (the paper uses
// isrequest/isresponse predicates over the message catalog).
type Func func(args []rel.Value) (rel.Value, error)

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value of the (possibly qualified) column. The
	// second result is false if the column is not in scope.
	Lookup(qualifier, name string) (rel.Value, bool)
}

// posEnv is implemented by Envs that expose positional row access, letting
// plan-bound column references (boundCol) skip name resolution entirely.
type posEnv interface {
	At(i int) (rel.Value, bool)
}

// MapEnv is an Env backed by a map from column name to value; qualifiers are
// ignored. Used by the constraint solver, where a candidate row is a simple
// name→value binding.
type MapEnv map[string]rel.Value

// Lookup implements Env.
func (m MapEnv) Lookup(_, name string) (rel.Value, bool) {
	v, ok := m[name]
	return v, ok
}

// Evaluator evaluates expressions under a set of registered functions.
//
// NullEq selects the equality dialect. With NullEq false the evaluator uses
// SQL three-valued logic: any comparison with NULL is unknown. With NullEq
// true it uses the paper's constraint dialect, where NULL is an ordinary
// domain value ("dontcare"/"noop") and "col = NULL" is satisfied exactly
// when col is NULL — the semantics required for column constraints such as
// "inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL".
type Evaluator struct {
	Funcs  map[string]Func
	NullEq bool
}

// tri is three-valued logic: -1 false, 0 unknown, +1 true.
type tri int8

const (
	triFalse   tri = -1
	triUnknown tri = 0
	triTrue    tri = 1
)

func triOf(v rel.Value) tri {
	if v.IsNull() {
		return triUnknown
	}
	if v.Truthy() {
		return triTrue
	}
	return triFalse
}

func triVal(t tri) rel.Value {
	switch t {
	case triTrue:
		return rel.B(true)
	case triFalse:
		return rel.B(false)
	default:
		return rel.Null()
	}
}

// Eval evaluates e under env, returning a value (possibly NULL for SQL
// unknown).
func (ev *Evaluator) Eval(e Expr, env Env) (rel.Value, error) {
	switch x := e.(type) {
	case Lit:
		return x.Val, nil
	case Col:
		v, ok := env.Lookup(x.Qualifier, x.Name)
		if !ok {
			return rel.Null(), fmt.Errorf("%w: %s", ErrUnknownColumn, x.String())
		}
		return v, nil
	case boundCol:
		if re, ok := env.(posEnv); ok {
			if v, ok := re.At(x.Idx); ok {
				return v, nil
			}
		}
		// Non-positional Env, or a stale position: resolve by name.
		v, ok := env.Lookup(x.Qualifier, x.Name)
		if !ok {
			return rel.Null(), fmt.Errorf("%w: %s", ErrUnknownColumn, x.Col.String())
		}
		return v, nil
	case Unary:
		t, err := ev.Bool(x.X, env)
		if err != nil {
			return rel.Null(), err
		}
		return triVal(-t), nil // NOT flips true/false, keeps unknown
	case Binary:
		return ev.evalBinary(x, env)
	case InList:
		return ev.evalIn(x, env)
	case IsNull:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return rel.Null(), err
		}
		res := v.IsNull() != x.Negate
		return rel.B(res), nil
	case Between:
		return ev.evalBetween(x, env)
	case Ternary:
		c, err := ev.Bool(x.Cond, env)
		if err != nil {
			return rel.Null(), err
		}
		// The paper's ternary chooses the else branch whenever the
		// condition does not hold; unknown behaves as false.
		if c == triTrue {
			return ev.Eval(x.Then, env)
		}
		return ev.Eval(x.Else, env)
	case Case:
		for _, w := range x.Whens {
			c, err := ev.Bool(w.Cond, env)
			if err != nil {
				return rel.Null(), err
			}
			if c == triTrue {
				return ev.Eval(w.Val, env)
			}
		}
		if x.Else != nil {
			return ev.Eval(x.Else, env)
		}
		return rel.Null(), nil
	case Call:
		fn, ok := ev.Funcs[x.Name]
		if !ok {
			return rel.Null(), fmt.Errorf("%w: %s", ErrUnknownFunc, x.Name)
		}
		args := make([]rel.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := ev.Eval(a, env)
			if err != nil {
				return rel.Null(), err
			}
			args[i] = v
		}
		return fn(args)
	default:
		return rel.Null(), fmt.Errorf("sqlmini: unhandled expression %T", e)
	}
}

// Bool evaluates e as a condition, returning three-valued truth.
func (ev *Evaluator) Bool(e Expr, env Env) (tri, error) {
	// Short-circuit AND/OR with Kleene logic directly so that unknown
	// operands combine correctly (unknown OR true = true).
	if b, ok := e.(Binary); ok && (b.Op == "AND" || b.Op == "OR") {
		l, err := ev.Bool(b.L, env)
		if err != nil {
			return triUnknown, err
		}
		if b.Op == "AND" && l == triFalse {
			return triFalse, nil
		}
		if b.Op == "OR" && l == triTrue {
			return triTrue, nil
		}
		r, err := ev.Bool(b.R, env)
		if err != nil {
			return triUnknown, err
		}
		if b.Op == "AND" {
			return triMin(l, r), nil
		}
		return triMax(l, r), nil
	}
	v, err := ev.Eval(e, env)
	if err != nil {
		return triUnknown, err
	}
	return triOf(v), nil
}

// True reports whether e evaluates to definite truth (WHERE semantics).
func (ev *Evaluator) True(e Expr, env Env) (bool, error) {
	t, err := ev.Bool(e, env)
	return t == triTrue, err
}

func triMin(a, b tri) tri {
	if a < b {
		return a
	}
	return b
}

func triMax(a, b tri) tri {
	if a > b {
		return a
	}
	return b
}

func (ev *Evaluator) evalBinary(x Binary, env Env) (rel.Value, error) {
	switch x.Op {
	case "AND", "OR":
		t, err := ev.Bool(x, env)
		if err != nil {
			return rel.Null(), err
		}
		return triVal(t), nil
	}
	l, err := ev.Eval(x.L, env)
	if err != nil {
		return rel.Null(), err
	}
	r, err := ev.Eval(x.R, env)
	if err != nil {
		return rel.Null(), err
	}
	return triVal(ev.compare(x.Op, l, r)), nil
}

// compare applies a comparison operator under the configured NULL dialect.
func (ev *Evaluator) compare(op string, l, r rel.Value) tri {
	return compareVals(op, l, r, ev.NullEq)
}

// compareVals is the operator kernel shared by the tree-walking evaluator
// and the compiled closures (compile.go): one comparison under the given
// NULL dialect.
func compareVals(op string, l, r rel.Value, nullEq bool) tri {
	if l.IsNull() || r.IsNull() {
		if nullEq {
			// Constraint dialect: NULL is a plain domain value.
			switch op {
			case "=":
				return triBool(l.Equal(r))
			case "<>":
				return triBool(!l.Equal(r))
			default:
				// Ordered comparison against dontcare never holds.
				return triFalse
			}
		}
		return triUnknown
	}
	switch op {
	case "=":
		return triBool(l.Equal(r))
	case "<>":
		return triBool(!l.Equal(r))
	}
	// Ordered comparisons require same-kind operands.
	if l.Kind() != r.Kind() {
		return triFalse
	}
	c := l.Compare(r)
	switch op {
	case "<":
		return triBool(c < 0)
	case "<=":
		return triBool(c <= 0)
	case ">":
		return triBool(c > 0)
	case ">=":
		return triBool(c >= 0)
	}
	return triUnknown
}

func triBool(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

func (ev *Evaluator) evalIn(x InList, env Env) (rel.Value, error) {
	v, err := ev.Eval(x.X, env)
	if err != nil {
		return rel.Null(), err
	}
	res := triFalse
	for _, s := range x.Set {
		sv, err := ev.Eval(s, env)
		if err != nil {
			return rel.Null(), err
		}
		res = triMax(res, ev.compare("=", v, sv))
		if res == triTrue {
			break
		}
	}
	if x.Negate {
		res = -res
	}
	return triVal(res), nil
}

func (ev *Evaluator) evalBetween(x Between, env Env) (rel.Value, error) {
	v, err := ev.Eval(x.X, env)
	if err != nil {
		return rel.Null(), err
	}
	lo, err := ev.Eval(x.Lo, env)
	if err != nil {
		return rel.Null(), err
	}
	hi, err := ev.Eval(x.Hi, env)
	if err != nil {
		return rel.Null(), err
	}
	res := triMin(ev.compare(">=", v, lo), ev.compare("<=", v, hi))
	if x.Negate {
		res = -res
	}
	return triVal(res), nil
}

// VisitColumns calls fn with the (unqualified) name of every column
// reference in e, in tree order, once per reference. The walk allocates
// nothing.
func VisitColumns(e Expr, fn func(name string)) {
	walkCols(e, func(ref Expr) bool {
		switch x := ref.(type) {
		case Col:
			fn(x.Name)
		case boundCol:
			fn(x.Name)
		}
		return true
	})
}

// walkCols calls visit with every column reference in e — each Col and
// boundCol, depth first and left to right — until visit returns false,
// and reports whether the walk ran to the end. It is the one walker over
// column references: VisitColumns, the sweep compiler's readsSweep and the
// selection-vector fallback all go through it. It allocates nothing.
func walkCols(e Expr, visit func(ref Expr) bool) bool {
	switch x := e.(type) {
	case Col, boundCol:
		return visit(e)
	case Unary:
		return walkCols(x.X, visit)
	case Binary:
		return walkCols(x.L, visit) && walkCols(x.R, visit)
	case InList:
		if !walkCols(x.X, visit) {
			return false
		}
		for _, s := range x.Set {
			if !walkCols(s, visit) {
				return false
			}
		}
	case IsNull:
		return walkCols(x.X, visit)
	case Between:
		return walkCols(x.X, visit) && walkCols(x.Lo, visit) && walkCols(x.Hi, visit)
	case Ternary:
		return walkCols(x.Cond, visit) && walkCols(x.Then, visit) && walkCols(x.Else, visit)
	case Case:
		for _, w := range x.Whens {
			if !walkCols(w.Cond, visit) || !walkCols(w.Val, visit) {
				return false
			}
		}
		if x.Else != nil {
			return walkCols(x.Else, visit)
		}
	case Call:
		for _, a := range x.Args {
			if !walkCols(a, visit) {
				return false
			}
		}
	}
	return true
}
