package sqlmini

import (
	"fmt"

	"coherdb/internal/rel"
)

// The tree-walking interpreter: the reference semantics every compiled
// form of an expression is tested against (FuzzCompiledMatchesInterpreter,
// the compile and vectorize tests, the protocol constraints' golden check)
// and the evaluator of the statement-level oracle (stmt_oracle_test.go).
// No binary evaluates through it: the engine compiles every expression
// when its statement plans (vectorize.go). It resolves names per row
// through an Env, so it reports an unknown column or function only when
// a row reaches it.

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
// ignored. It binds a constraint's candidate row, a simple name→value map.
type MapEnv map[string]rel.Value

// Lookup implements Env.
func (m MapEnv) Lookup(_, name string) (rel.Value, bool) {
	v, ok := m[name]
	return v, ok
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

// frameEnv evaluates expressions against one code row laid out by a
// planner scope, decoding through the shared dictionary on lookup.
type frameEnv struct {
	f   *scope
	row []uint32
}

func (e frameEnv) Lookup(q, name string) (rel.Value, bool) {
	i := e.f.resolve(q, name)
	if i < 0 {
		return rel.Null(), false
	}
	return dict.Value(e.row[i]), true
}

// At implements posEnv for plan-bound column references.
func (e frameEnv) At(i int) (rel.Value, bool) {
	if i < 0 || i >= len(e.row) {
		return rel.Null(), false
	}
	return dict.Value(e.row[i]), true
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

// rowEnv adapts row i of t to Env; the qualifier, if present, must match
// the table name.
type rowEnv struct {
	t *rel.Table
	i int
}

func (e rowEnv) Lookup(q, name string) (rel.Value, bool) {
	if q != "" && q != e.t.Name() {
		return rel.Null(), false
	}
	if !e.t.HasColumn(name) {
		return rel.Null(), false
	}
	return e.t.Get(e.i, name), true
}
