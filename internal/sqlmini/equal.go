package sqlmini

// Structural identity of expression trees. The constraint solver groups
// rule chains that test the same conditions in the same order; the chains
// of one spec may share condition nodes or be parsed independently (a
// spec file holds one text chain per column), so sameness is decided on
// structure, not on node identity.

// EqualExpr reports whether a and b are the same tree: equal node types,
// operators and names, literals equal under rel.Value.Equal (so of the
// same kind), in the same shape. It allocates nothing.
func EqualExpr(a, b Expr) bool {
	switch x := a.(type) {
	case Lit:
		y, ok := b.(Lit)
		return ok && x.Val.Equal(y.Val)
	case Col:
		y, ok := b.(Col)
		return ok && x == y
	case boundCol:
		y, ok := b.(boundCol)
		return ok && x == y
	case Unary:
		y, ok := b.(Unary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case Binary:
		y, ok := b.(Binary)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case InList:
		y, ok := b.(InList)
		return ok && x.Negate == y.Negate && EqualExpr(x.X, y.X) && equalList(x.Set, y.Set)
	case IsNull:
		y, ok := b.(IsNull)
		return ok && x.Negate == y.Negate && EqualExpr(x.X, y.X)
	case Between:
		y, ok := b.(Between)
		return ok && x.Negate == y.Negate && EqualExpr(x.X, y.X) &&
			EqualExpr(x.Lo, y.Lo) && EqualExpr(x.Hi, y.Hi)
	case Ternary:
		y, ok := b.(Ternary)
		return ok && EqualExpr(x.Cond, y.Cond) && EqualExpr(x.Then, y.Then) && EqualExpr(x.Else, y.Else)
	case Case:
		y, ok := b.(Case)
		if !ok || len(x.Whens) != len(y.Whens) || (x.Else == nil) != (y.Else == nil) {
			return false
		}
		for i, w := range x.Whens {
			if !EqualExpr(w.Cond, y.Whens[i].Cond) || !EqualExpr(w.Val, y.Whens[i].Val) {
				return false
			}
		}
		return x.Else == nil || EqualExpr(x.Else, y.Else)
	case Call:
		y, ok := b.(Call)
		return ok && x.Name == y.Name && equalList(x.Args, y.Args)
	}
	return false
}

func equalList(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i, e := range a {
		if !EqualExpr(e, b[i]) {
			return false
		}
	}
	return true
}
