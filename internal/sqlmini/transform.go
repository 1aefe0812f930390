package sqlmini

import "coherdb/internal/rel"

// ResolveSymbols rewrites an expression for the paper's constraint dialect,
// in which bare identifiers denote symbolic domain values unless they name a
// column: "inmsg = readex and dirst = SI" compares the inmsg column against
// the *value* readex. Every Col whose name is not accepted by isColumn is
// replaced by a string literal of the same spelling.
//
// Only the path from the root to each rewritten Col is copied: a subtree
// with nothing to rewrite is returned as the input value itself, so an
// already-resolved tree comes back unchanged without allocating, and
// resolved trees share their untouched nodes (InList.Set and Call.Args
// slices included) with the input. Expression trees are immutable values;
// callers must not mutate a returned tree's slices.
func ResolveSymbols(e Expr, isColumn func(string) bool) Expr {
	r, _ := resolve(e, isColumn)
	return r
}

// resolve is ResolveSymbols reporting whether anything changed; an
// unchanged subtree is returned as e itself, never re-boxed.
func resolve(e Expr, isColumn func(string) bool) (Expr, bool) {
	switch x := e.(type) {
	case Col:
		if x.Qualifier == "" && !isColumn(x.Name) {
			return Lit{Val: rel.S(x.Name)}, true
		}
	case Unary:
		if r, ok := resolve(x.X, isColumn); ok {
			return Unary{Op: x.Op, X: r}, true
		}
	case Binary:
		l, lok := resolve(x.L, isColumn)
		r, rok := resolve(x.R, isColumn)
		if lok || rok {
			return Binary{Op: x.Op, L: l, R: r}, true
		}
	case InList:
		r, xok := resolve(x.X, isColumn)
		set, sok := resolveList(x.Set, isColumn)
		if xok || sok {
			return InList{X: r, Set: set, Negate: x.Negate}, true
		}
	case IsNull:
		if r, ok := resolve(x.X, isColumn); ok {
			return IsNull{X: r, Negate: x.Negate}, true
		}
	case Between:
		r, xok := resolve(x.X, isColumn)
		lo, lok := resolve(x.Lo, isColumn)
		hi, hok := resolve(x.Hi, isColumn)
		if xok || lok || hok {
			return Between{X: r, Lo: lo, Hi: hi, Negate: x.Negate}, true
		}
	case Ternary:
		c, cok := resolve(x.Cond, isColumn)
		t, tok := resolve(x.Then, isColumn)
		f, fok := resolve(x.Else, isColumn)
		if cok || tok || fok {
			return Ternary{Cond: c, Then: t, Else: f}, true
		}
	case Case:
		whens, changed := x.Whens, false
		for i, w := range x.Whens {
			c, cok := resolve(w.Cond, isColumn)
			v, vok := resolve(w.Val, isColumn)
			if cok || vok {
				if !changed {
					whens, changed = append([]When(nil), x.Whens...), true
				}
				whens[i] = When{Cond: c, Val: v}
			}
		}
		els, eok := resolve(x.Else, isColumn) // a nil Else comes back nil
		if changed || eok {
			return Case{Whens: whens, Else: els}, true
		}
	case Call:
		if args, ok := resolveList(x.Args, isColumn); ok {
			return Call{Name: x.Name, Args: args}, true
		}
	}
	return e, false
}

// resolveList resolves every element, copying the slice only when some
// element changed.
func resolveList(es []Expr, isColumn func(string) bool) ([]Expr, bool) {
	out, changed := es, false
	for i, e := range es {
		if r, ok := resolve(e, isColumn); ok {
			if !changed {
				out, changed = append([]Expr(nil), es...), true
			}
			out[i] = r
		}
	}
	return out, changed
}
