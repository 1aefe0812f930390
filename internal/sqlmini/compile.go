package sqlmini

import (
	"fmt"

	"coherdb/internal/rel"
)

// This file is the row-at-a-time half of the expression-compilation layer:
// it lowers an expression tree once into a tree of position-bound closures
// over dictionary-code rows, so hot loops evaluate many rows without
// per-row name resolution, AST walks or operator-string dispatch:
//
//   - column references resolve to row positions at compile time, through
//     a name index (CompileCodes) or the positions the query planner bound
//     (compileBoundVal);
//   - registered functions resolve to their Func at compile time;
//   - AND/OR compile to short-circuit Kleene closures;
//   - IN over literal sets compiles to a hash-set membership test;
//   - comparison operators specialize per operator and NULL dialect.
//
// Equality, IN membership and IS NULL specialize to integer compares
// against codes interned at compile time; only ordered comparisons and
// function calls decode values.
//
// Compiled closures are stateless: they close over immutable compile-time
// state only, so one compiled predicate may be evaluated concurrently from
// many goroutines. The other half is the selection-vector kernels
// (vectorize.go), which run every predicate a statement or the solver's
// incremental steps evaluate — scan and DML filters, post-join residues,
// nested-loop ON, HAVING, domain sweeps and rule-chain selection — and
// fall back to these closures for the shapes they do not lower. Beyond
// that fallback, production runs closures only as value producers (a
// computed select item, GROUP BY key, MIN/MAX argument or ORDER BY key,
// INSERT VALUES and UPDATE SET) and as the predicates of the solver's
// MonolithicOpts baseline (CompileCodes). The reference both forms are
// tested against is the tree-walking interpreter, which lives in test
// code.

// dict is the shared dictionary every rel.Table encodes into; compiled
// kernels intern their literals through it at compile time and compare
// codes at evaluation time.
var dict = rel.SharedDict()

// CodePred is a compiled boolean expression over a dictionary-code row: it
// reports whether the expression is definitely true (WHERE semantics) on
// the decoded row. The row must cover
// every column position the expression references; a referenced position
// beyond len(crow) returns ErrUnknownColumn. A CodePred is safe for
// concurrent use.
type CodePred func(crow []uint32) (bool, error)

// valFn is a compiled expression node producing a value.
type valFn func(crow []uint32) (rel.Value, error)

// codeFn is a compiled expression node producing a dictionary code; only
// literals and column references compile to one, which is exactly what
// equality, IN and IS NULL need to stay in code space.
type codeFn func(crow []uint32) (uint32, error)

// triFn is a compiled condition node producing three-valued truth.
type triFn func(crow []uint32) (tri, error)

// CompileCodes lowers e into a CodePred over code rows laid out by
// colIndex, which maps each referenced column name to its row position;
// the evaluator's Funcs and NullEq dialect are captured at compile time.
// Unknown columns and functions are compile-time errors.
func (ev *Evaluator) CompileCodes(e Expr, colIndex map[string]int) (CodePred, error) {
	return (&compiler{ev: ev, ix: colIndex}).pred(e)
}

// compileBoundVal lowers a plan-bound expression — one whose column
// references bindExpr already replaced with boundCol positions — into a
// value producer over a code row: the form computed select items, GROUP
// BY keys, aggregate arguments, ORDER BY keys, INSERT VALUES and UPDATE
// SET evaluate. A bare Col left in the tree is one the planner could not
// resolve (unknown, or ambiguous across sources) and fails compilation
// with ErrUnknownColumn; an unknown function fails with ErrUnknownFunc.
//
// The NULL dialect and function registry are captured at compile time, so
// compiled plans are cached per dialect (see planEntry) and invalidated
// when a function is registered.
func (ev *Evaluator) compileBoundVal(e Expr) (valFn, error) {
	return (&compiler{ev: ev, bound: true}).val(e)
}

// compiler carries compile-time state: the column binding, and whether
// column references resolve through pre-bound positions
// (compileBoundVal, CompileBoundVec) or the name index.
type compiler struct {
	ev    *Evaluator
	ix    map[string]int
	bound bool
}

// pred compiles e as a CodePred.
func (c *compiler) pred(e Expr) (CodePred, error) {
	root, err := c.bool(e)
	if err != nil {
		return nil, err
	}
	return func(crow []uint32) (bool, error) {
		t, err := root(crow)
		return t == triTrue, err
	}, nil
}

// bool compiles e as a condition. bool(e) is triOf(val(e)) for every
// node, so recursing structurally through ternaries and cases preserves
// the value semantics.
func (c *compiler) bool(e Expr) (triFn, error) {
	switch x := e.(type) {
	case Lit:
		t := triOf(x.Val)
		return func([]uint32) (tri, error) { return t, nil }, nil
	case Unary:
		inner, err := c.bool(x.X)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (tri, error) {
			t, err := inner(crow)
			return -t, err // NOT flips true/false, keeps unknown
		}, nil
	case Binary:
		switch x.Op {
		case "AND", "OR":
			l, err := c.bool(x.L)
			if err != nil {
				return nil, err
			}
			r, err := c.bool(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return func(crow []uint32) (tri, error) {
					lt, err := l(crow)
					if err != nil {
						return triUnknown, err
					}
					if lt == triFalse {
						return triFalse, nil
					}
					rt, err := r(crow)
					if err != nil {
						return triUnknown, err
					}
					return triMin(lt, rt), nil
				}, nil
			}
			return func(crow []uint32) (tri, error) {
				lt, err := l(crow)
				if err != nil {
					return triUnknown, err
				}
				if lt == triTrue {
					return triTrue, nil
				}
				rt, err := r(crow)
				if err != nil {
					return triUnknown, err
				}
				return triMax(lt, rt), nil
			}, nil
		default:
			return c.compare(x)
		}
	case InList:
		return c.in(x)
	case IsNull:
		neg := x.Negate
		if cf, ok, err := c.code(x.X); err != nil {
			return nil, err
		} else if ok {
			return func(crow []uint32) (tri, error) {
				cv, err := cf(crow)
				if err != nil {
					return triUnknown, err
				}
				return triBool((cv == rel.NullCode) != neg), nil
			}, nil
		}
		inner, err := c.val(x.X)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (tri, error) {
			v, err := inner(crow)
			if err != nil {
				return triUnknown, err
			}
			return triBool(v.IsNull() != neg), nil
		}, nil
	case Between:
		return c.between(x)
	case Ternary:
		cond, err := c.bool(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.bool(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.bool(x.Else)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (tri, error) {
			t, err := cond(crow)
			if err != nil {
				return triUnknown, err
			}
			// Unknown behaves as false: the else branch (paper's ternary).
			if t == triTrue {
				return then(crow)
			}
			return els(crow)
		}, nil
	case Case:
		conds := make([]triFn, len(x.Whens))
		vals := make([]triFn, len(x.Whens))
		for i, w := range x.Whens {
			var err error
			if conds[i], err = c.bool(w.Cond); err != nil {
				return nil, err
			}
			if vals[i], err = c.bool(w.Val); err != nil {
				return nil, err
			}
		}
		var els triFn
		if x.Else != nil {
			var err error
			if els, err = c.bool(x.Else); err != nil {
				return nil, err
			}
		}
		return func(crow []uint32) (tri, error) {
			for i, cond := range conds {
				t, err := cond(crow)
				if err != nil {
					return triUnknown, err
				}
				if t == triTrue {
					return vals[i](crow)
				}
			}
			if els != nil {
				return els(crow)
			}
			return triUnknown, nil // CASE with no match yields NULL
		}, nil
	default:
		// Col, boundCol, Call: evaluate as a value and take its truth.
		v, err := c.val(e)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (tri, error) {
			val, err := v(crow)
			if err != nil {
				return triUnknown, err
			}
			return triOf(val), nil
		}, nil
	}
}

// colPos resolves a column reference to its row position, honoring the
// bound/unbound compilation mode. ok=false with a nil error means the
// node is not a column reference at all.
func (c *compiler) colPos(e Expr) (idx int, ok bool, err error) {
	switch x := e.(type) {
	case Col:
		idx, found := c.ix[x.Name]
		if c.bound || !found {
			// In bound mode a bare Col surviving plan-time binding is one
			// the planner could not resolve (unknown or ambiguous).
			return 0, false, fmt.Errorf("%w: %s", ErrUnknownColumn, x.String())
		}
		return idx, true, nil
	case boundCol:
		if c.bound {
			return x.Idx, true, nil
		}
		// Positions bound against a table during query planning are stale
		// here; rebind by name against the compile-time index.
		idx, found := c.ix[x.Name]
		if !found {
			return 0, false, fmt.Errorf("%w: %s", ErrUnknownColumn, x.Col.String())
		}
		return idx, true, nil
	}
	return 0, false, nil
}

// code compiles e as a dictionary-code producer when possible: literals
// intern at compile time, column references load crow[idx]. ok=false
// means e needs full value evaluation (calls, ternaries, cases).
func (c *compiler) code(e Expr) (codeFn, bool, error) {
	if x, isLit := e.(Lit); isLit {
		cc := dict.Code(x.Val)
		return func([]uint32) (uint32, error) { return cc, nil }, true, nil
	}
	idx, ok, err := c.colPos(e)
	if err != nil || !ok {
		return nil, false, err
	}
	ref, _ := colOf(e)
	return func(crow []uint32) (uint32, error) {
		if idx >= len(crow) {
			return rel.NullCode, fmt.Errorf("%w: %s (position %d beyond row of %d)", ErrUnknownColumn, ref, idx, len(crow))
		}
		return crow[idx], nil
	}, true, nil
}

// val compiles e as a value producer. Column loads decode their code
// through the shared dictionary.
func (c *compiler) val(e Expr) (valFn, error) {
	switch x := e.(type) {
	case Lit:
		v := x.Val
		return func([]uint32) (rel.Value, error) { return v, nil }, nil
	case Col, boundCol:
		idx, ok, err := c.colPos(e)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrUnknownColumn, e)
		}
		ref, _ := colOf(e)
		return func(crow []uint32) (rel.Value, error) {
			if idx >= len(crow) {
				return rel.Null(), fmt.Errorf("%w: %s (position %d beyond row of %d)", ErrUnknownColumn, ref, idx, len(crow))
			}
			return dict.Value(crow[idx]), nil
		}, nil
	case Call:
		fn, ok := c.ev.Funcs[x.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownFunc, x.Name)
		}
		args := make([]valFn, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = c.val(a); err != nil {
				return nil, err
			}
		}
		return func(crow []uint32) (rel.Value, error) {
			vals := make([]rel.Value, len(args))
			for i, a := range args {
				v, err := a(crow)
				if err != nil {
					return rel.Null(), err
				}
				vals[i] = v
			}
			return fn(vals)
		}, nil
	case Ternary:
		// As a value, a ternary yields the chosen branch's value (which
		// need not be boolean); only the condition is three-valued.
		cond, err := c.bool(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.val(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.val(x.Else)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (rel.Value, error) {
			t, err := cond(crow)
			if err != nil {
				return rel.Null(), err
			}
			// Unknown behaves as false: the else branch (paper's ternary).
			if t == triTrue {
				return then(crow)
			}
			return els(crow)
		}, nil
	case Case:
		// As a value, CASE yields the first matching WHEN's value; no
		// match and no ELSE yields NULL.
		conds := make([]triFn, len(x.Whens))
		vals := make([]valFn, len(x.Whens))
		for i, w := range x.Whens {
			var err error
			if conds[i], err = c.bool(w.Cond); err != nil {
				return nil, err
			}
			if vals[i], err = c.val(w.Val); err != nil {
				return nil, err
			}
		}
		var els valFn
		if x.Else != nil {
			var err error
			if els, err = c.val(x.Else); err != nil {
				return nil, err
			}
		}
		return func(crow []uint32) (rel.Value, error) {
			for i, cond := range conds {
				t, err := cond(crow)
				if err != nil {
					return rel.Null(), err
				}
				if t == triTrue {
					return vals[i](crow)
				}
			}
			if els != nil {
				return els(crow)
			}
			return rel.Null(), nil
		}, nil
	default:
		// Every other node is a condition; its value is its truth value.
		b, err := c.bool(e)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (rel.Value, error) {
			t, err := b(crow)
			if err != nil {
				return rel.Null(), err
			}
			return triVal(t), nil
		}, nil
	}
}

// compare specializes a comparison on its operator and the NULL dialect
// at compile time. Equality over code-loadable operands (columns and
// literals) is a pure integer compare: the shared dictionary is injective,
// so equal codes ⇔ equal values, and code 0 is NULL in both dialects.
func (c *compiler) compare(x Binary) (triFn, error) {
	nullEq := c.ev.NullEq
	switch x.Op {
	case "=", "<>":
		lc, lok, err := c.code(x.L)
		if err != nil {
			return nil, err
		}
		rc, rok, err := c.code(x.R)
		if err != nil {
			return nil, err
		}
		if lok && rok {
			want := x.Op == "="
			return func(crow []uint32) (tri, error) {
				la, err := lc(crow)
				if err != nil {
					return triUnknown, err
				}
				ra, err := rc(crow)
				if err != nil {
					return triUnknown, err
				}
				if !nullEq && (la == rel.NullCode || ra == rel.NullCode) {
					return triUnknown, nil
				}
				return triBool((la == ra) == want), nil
			}, nil
		}
	}
	l, err := c.val(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.val(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=", "<>":
		want := x.Op == "="
		return func(crow []uint32) (tri, error) {
			lv, err := l(crow)
			if err != nil {
				return triUnknown, err
			}
			rv, err := r(crow)
			if err != nil {
				return triUnknown, err
			}
			if !nullEq && (lv.IsNull() || rv.IsNull()) {
				return triUnknown, nil
			}
			return triBool(lv.Equal(rv) == want), nil
		}, nil
	case "<", "<=", ">", ">=":
		op := x.Op
		return func(crow []uint32) (tri, error) {
			lv, err := l(crow)
			if err != nil {
				return triUnknown, err
			}
			rv, err := r(crow)
			if err != nil {
				return triUnknown, err
			}
			return compareVals(op, lv, rv, nullEq), nil
		}, nil
	}
	return nil, fmt.Errorf("sqlmini: cannot compile operator %q", x.Op)
}

// in compiles membership tests. When every set element is a literal — the
// overwhelmingly common shape after ResolveSymbols turns bare identifiers
// into string literals — the set compiles to a hash set of dictionary
// codes, turning the O(|set|) scan per candidate into one integer-keyed
// lookup with no Value boxing.
func (c *compiler) in(x InList) (triFn, error) {
	neg := x.Negate
	nullEq := c.ev.NullEq

	allLit := true
	for _, s := range x.Set {
		if _, ok := s.(Lit); !ok {
			allLit = false
			break
		}
	}
	if allLit {
		codes := make(map[uint32]struct{}, len(x.Set))
		hasNull := false
		for _, s := range x.Set {
			v := s.(Lit).Val
			if v.IsNull() {
				hasNull = true
				if !nullEq {
					continue // NULL elements never match in 3VL; they only taint
				}
			}
			codes[dict.Code(v)] = struct{}{}
		}
		empty := len(x.Set) == 0
		if cf, ok, err := c.code(x.X); err != nil {
			return nil, err
		} else if ok {
			return func(crow []uint32) (tri, error) {
				cv, err := cf(crow)
				if err != nil {
					return triUnknown, err
				}
				var res tri
				switch {
				case nullEq:
					// Constraint dialect: NULL is an ordinary value, the set
					// lookup decides outright.
					if _, ok := codes[cv]; ok {
						res = triTrue
					} else {
						res = triFalse
					}
				case empty:
					res = triFalse
				case cv == rel.NullCode:
					res = triUnknown // NULL compared to a non-empty set
				default:
					if _, ok := codes[cv]; ok {
						res = triTrue
					} else if hasNull {
						res = triUnknown // no match, but a NULL element taints
					} else {
						res = triFalse
					}
				}
				if neg {
					res = -res
				}
				return res, nil
			}, nil
		}
		// Computed operand (call, case): evaluate the value, then intern-
		// free membership via a read-only dictionary probe.
		inner, err := c.val(x.X)
		if err != nil {
			return nil, err
		}
		return func(crow []uint32) (tri, error) {
			v, err := inner(crow)
			if err != nil {
				return triUnknown, err
			}
			inSet := false
			if cv, known := dict.LookupCode(v); known {
				_, inSet = codes[cv]
			}
			var res tri
			switch {
			case nullEq:
				res = triBool(inSet)
			case empty:
				res = triFalse
			case v.IsNull():
				res = triUnknown
			case inSet:
				res = triTrue
			case hasNull:
				res = triUnknown
			default:
				res = triFalse
			}
			if neg {
				res = -res
			}
			return res, nil
		}, nil
	}

	// General form: compiled element expressions, scanned with the same
	// short-circuit as the interpreter.
	inner, err := c.val(x.X)
	if err != nil {
		return nil, err
	}
	set := make([]valFn, len(x.Set))
	for i, s := range x.Set {
		if set[i], err = c.val(s); err != nil {
			return nil, err
		}
	}
	return func(crow []uint32) (tri, error) {
		v, err := inner(crow)
		if err != nil {
			return triUnknown, err
		}
		res := triFalse
		for _, s := range set {
			sv, err := s(crow)
			if err != nil {
				return triUnknown, err
			}
			res = triMax(res, compareVals("=", v, sv, nullEq))
			if res == triTrue {
				break
			}
		}
		if neg {
			res = -res
		}
		return res, nil
	}, nil
}

func (c *compiler) between(x Between) (triFn, error) {
	inner, err := c.val(x.X)
	if err != nil {
		return nil, err
	}
	lo, err := c.val(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.val(x.Hi)
	if err != nil {
		return nil, err
	}
	neg := x.Negate
	nullEq := c.ev.NullEq
	return func(crow []uint32) (tri, error) {
		v, err := inner(crow)
		if err != nil {
			return triUnknown, err
		}
		lv, err := lo(crow)
		if err != nil {
			return triUnknown, err
		}
		hv, err := hi(crow)
		if err != nil {
			return triUnknown, err
		}
		res := triMin(compareVals(">=", v, lv, nullEq), compareVals("<=", v, hv, nullEq))
		if neg {
			res = -res
		}
		return res, nil
	}, nil
}
