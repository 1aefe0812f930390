package sqlmini

import "coherdb/internal/rel"

// walk calls visit with every node of e — parents before their children,
// children left to right — until visit returns false, and reports whether
// the walk ran to the end. It is the one walker over expression trees:
// column collection (VisitColumns, pushTarget, StmtInputs), aggregate
// detection and the kernels' verdict memo all go through it. It
// allocates nothing.
func walk(e Expr, visit func(Expr) bool) bool {
	// The last child of each node is walked by the loop rather than by a
	// call, so the right-nested rule chains cost no stack depth.
	for e != nil {
		if !visit(e) {
			return false
		}
		switch x := e.(type) {
		case Unary:
			e = x.X
		case Binary:
			if !walk(x.L, visit) {
				return false
			}
			e = x.R
		case InList:
			if !walk(x.X, visit) || !walkList(x.Set, visit) {
				return false
			}
			return true
		case IsNull:
			e = x.X
		case Between:
			if !walk(x.X, visit) || !walk(x.Lo, visit) {
				return false
			}
			e = x.Hi
		case Ternary:
			if !walk(x.Cond, visit) || !walk(x.Then, visit) {
				return false
			}
			e = x.Else
		case Case:
			for _, w := range x.Whens {
				if !walk(w.Cond, visit) || !walk(w.Val, visit) {
					return false
				}
			}
			e = x.Else
		case Call:
			return walkList(x.Args, visit)
		default:
			return true
		}
	}
	return true
}

func walkList(es []Expr, visit func(Expr) bool) bool {
	for _, e := range es {
		if !walk(e, visit) {
			return false
		}
	}
	return true
}

// colOf returns the column reference n is, plan-bound or not.
func colOf(n Expr) (Col, bool) {
	switch x := n.(type) {
	case Col:
		return x, true
	case boundCol:
		return x.Col, true
	}
	return Col{}, false
}

// VisitColumns calls fn with the (unqualified) name of every column
// reference in e, in tree order, once per reference. The walk allocates
// nothing.
func VisitColumns(e Expr, fn func(name string)) {
	walk(e, func(n Expr) bool {
		if c, ok := colOf(n); ok {
			fn(c.Name)
		}
		return true
	})
}

// isAgg reports whether n is an aggregate call: COUNT(*), MIN or MAX,
// which the parser spells count_star, agg_min and agg_max.
func isAgg(n Expr) bool {
	c, ok := n.(Call)
	return ok && (c.Name == "count_star" || c.Name == "agg_min" || c.Name == "agg_max")
}

// hasAgg reports whether e contains an aggregate call anywhere.
func hasAgg(e Expr) bool {
	return !walk(e, func(n Expr) bool { return !isAgg(n) })
}

// rewrite returns e with every column reference and call for which fn
// reports a replacement replaced by it — the only nodes a rewrite
// replaces, so fn is offered no other; a replaced call's arguments are
// not visited. It is the one rebuilder over expression trees:
// ResolveSymbols, bindExpr and the planner's aggregate-slot and ORDER BY
// bindings all go through it. Only the path from the root to each
// replacement is copied; a subtree with nothing to replace comes back as
// the input value itself, so rewriting a tree with nothing to replace
// allocates nothing, and a rewritten tree shares its untouched nodes
// (InList.Set and Call.Args slices included) with the input. Expression
// trees are immutable values; callers must not mutate a returned tree's
// slices. The second result reports whether anything was replaced.
func rewrite(e Expr, fn func(Expr) (Expr, bool)) (Expr, bool) {
	switch x := e.(type) {
	case Col:
		if r, ok := fn(e); ok {
			return r, true
		}
	case Unary:
		if r, ok := rewrite(x.X, fn); ok {
			return Unary{Op: x.Op, X: r}, true
		}
	case Binary:
		l, lok := rewrite(x.L, fn)
		r, rok := rewrite(x.R, fn)
		if lok || rok {
			return Binary{Op: x.Op, L: l, R: r}, true
		}
	case InList:
		r, xok := rewrite(x.X, fn)
		set, sok := rewriteList(x.Set, fn)
		if xok || sok {
			return InList{X: r, Set: set, Negate: x.Negate}, true
		}
	case IsNull:
		if r, ok := rewrite(x.X, fn); ok {
			return IsNull{X: r, Negate: x.Negate}, true
		}
	case Between:
		r, xok := rewrite(x.X, fn)
		lo, lok := rewrite(x.Lo, fn)
		hi, hok := rewrite(x.Hi, fn)
		if xok || lok || hok {
			return Between{X: r, Lo: lo, Hi: hi, Negate: x.Negate}, true
		}
	case Ternary:
		c, cok := rewrite(x.Cond, fn)
		t, tok := rewrite(x.Then, fn)
		f, fok := rewrite(x.Else, fn)
		if cok || tok || fok {
			return Ternary{Cond: c, Then: t, Else: f}, true
		}
	case Case:
		whens, changed := x.Whens, false
		for i, w := range x.Whens {
			c, cok := rewrite(w.Cond, fn)
			v, vok := rewrite(w.Val, fn)
			if cok || vok {
				if !changed {
					whens, changed = append([]When(nil), x.Whens...), true
				}
				whens[i] = When{Cond: c, Val: v}
			}
		}
		els, eok := rewrite(x.Else, fn) // a nil Else comes back nil
		if changed || eok {
			return Case{Whens: whens, Else: els}, true
		}
	case Call:
		if r, ok := fn(e); ok {
			return r, true
		}
		if args, ok := rewriteList(x.Args, fn); ok {
			return Call{Name: x.Name, Args: args}, true
		}
	}
	return e, false
}

// rewriteList rewrites every element, copying the slice only when some
// element changed.
func rewriteList(es []Expr, fn func(Expr) (Expr, bool)) ([]Expr, bool) {
	out, changed := es, false
	for i, e := range es {
		if r, ok := rewrite(e, fn); ok {
			if !changed {
				out, changed = append([]Expr(nil), es...), true
			}
			out[i] = r
		}
	}
	return out, changed
}

// ResolveSymbols rewrites an expression for the paper's constraint dialect,
// in which bare identifiers denote symbolic domain values unless they name a
// column: "inmsg = readex and dirst = SI" compares the inmsg column against
// the *value* readex. Every Col whose name is not accepted by isColumn is
// replaced by a string literal of the same spelling.
//
// Only the path from the root to each rewritten Col is copied (see
// rewrite): an already-resolved tree comes back unchanged without
// allocating.
func ResolveSymbols(e Expr, isColumn func(string) bool) Expr {
	r, _ := rewrite(e, func(n Expr) (Expr, bool) {
		if c, ok := n.(Col); ok && c.Qualifier == "" && !isColumn(c.Name) {
			return Lit{Val: rel.S(c.Name)}, true
		}
		return nil, false
	})
	return r
}
