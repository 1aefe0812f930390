package sqlmini

import (
	"errors"

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

// Evaluator holds what compiling an expression binds besides its columns:
// the registered functions and the NULL dialect.
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

// compareVals is one comparison under the given NULL dialect: the
// decoded form of the ordered-comparison kernels, and the interpreter's.
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
