package sqlmini

import (
	"errors"
	"fmt"

	"coherdb/internal/rel"
)

// This file is the constraint-compilation layer: it lowers an expression
// tree once into a tree of position-bound closures, so the constraint
// solver's hot loop evaluates millions of candidate rows without per-row
// name resolution, AST walks or operator-string dispatch. It is the same
// move the query planner made for SELECT branches (plan-time boundCol
// binding), applied to the solver's per-candidate evaluation:
//
//   - column references resolve to row positions at compile time;
//   - registered functions resolve to their Func at compile time;
//   - AND/OR compile to short-circuit Kleene closures;
//   - IN over literal sets compiles to a hash-set membership test;
//   - comparison operators specialize per operator and NULL dialect;
//   - with a sweep column declared, subtrees that do not read it are
//     cached per instance across the sweep (see CompileSweep).
//
// Compiled closures run over dictionary-code rows ([]uint32): equality,
// IN membership and IS NULL specialize to integer compares against codes
// interned at compile time, and only ordered comparisons and function
// calls decode values. The Value-row entry points (Pred, Program.Eval)
// remain as encoding wrappers over the code kernels.
//
// Compiled closures close over immutable compile-time state only; all
// mutable evaluation state lives in per-worker Instances, so one Program
// may be evaluated concurrently from many solver workers.

// dict is the shared dictionary every rel.Table encodes into; compiled
// kernels intern their literals through it at compile time and compare
// codes at evaluation time.
var dict = rel.SharedDict()

// Pred is a compiled boolean constraint over a positional row: it reports
// whether the expression is definitely true (WHERE semantics), exactly as
// Evaluator.True would. The row must be at least long enough to cover
// every column position the compiled expression references; referenced
// positions beyond len(row) return ErrUnknownColumn. A Pred is safe for
// concurrent use.
type Pred func(row []rel.Value) (bool, error)

// CodePred is Pred over a dictionary-code row — the form the executor's
// filter loops evaluate, with no Value boxing on the hot path.
type CodePred func(crow []uint32) (bool, error)

// valFn is a compiled expression node producing a value.
type valFn func(in *Instance, crow []uint32) (rel.Value, error)

// codeFn is a compiled expression node producing a dictionary code; only
// literals and column references compile to one, which is exactly what
// equality, IN and IS NULL need to stay in code space.
type codeFn func(in *Instance, crow []uint32) (uint32, error)

// triFn is a compiled condition node producing three-valued truth.
type triFn func(in *Instance, crow []uint32) (tri, error)

// Program is a compiled boolean expression. Programs hold no mutable
// state; evaluation goes through an Instance, which carries the sweep
// cache for one worker.
type Program struct {
	root     triFn
	triSlots int
	valSlots int
}

// Instance is one worker's evaluation state for a Program: the cache
// slots of sweep-stable subtrees plus the generation stamp that
// invalidates them. Instances are not safe for concurrent use; each
// goroutine evaluates through its own.
type Instance struct {
	gen     uint64
	triMemo []uint64 // stamp per tri slot
	tris    []tri
	valMemo []uint64 // stamp per val slot
	vals    []rel.Value
	crow    []uint32 // scratch for the Value-row Eval wrapper
	svBufs  [][]tri  // lane buffers for SweepProg combiners (see sweepvec.go)
}

// Instance returns fresh evaluation state for p.
func (p *Program) Instance() *Instance {
	return &Instance{
		gen:     1,
		triMemo: make([]uint64, p.triSlots),
		tris:    make([]tri, p.triSlots),
		valMemo: make([]uint64, p.valSlots),
		vals:    make([]rel.Value, p.valSlots),
	}
}

// NextRow invalidates the sweep cache: call it whenever any column other
// than the sweep column may have changed since the last Eval.
func (in *Instance) NextRow() { in.gen++ }

// Eval evaluates the program on a Value row through this instance's cache,
// reporting definite truth (WHERE semantics). It encodes the row and
// defers to EvalCodes; hot paths hold code rows already and skip the
// encoding.
func (p *Program) Eval(in *Instance, row []rel.Value) (bool, error) {
	var crow []uint32
	if in != nil {
		if cap(in.crow) < len(row) {
			in.crow = make([]uint32, len(row))
		}
		crow = in.crow[:len(row)]
	} else {
		crow = make([]uint32, len(row))
	}
	for i, v := range row {
		crow[i] = dict.Code(v)
	}
	return p.EvalCodes(in, crow)
}

// EvalCodes evaluates the program on a dictionary-code row through this
// instance's cache, reporting definite truth (WHERE semantics).
func (p *Program) EvalCodes(in *Instance, crow []uint32) (bool, error) {
	t, err := p.root(in, crow)
	return t == triTrue, err
}

// Compile lowers e into a position-bound closure tree with no sweep
// caching. colIndex maps each referenced column name to its position in
// the rows the predicate will see; the evaluator's Funcs and NullEq
// dialect are captured at compile time. Unknown columns and functions are
// compile-time errors (Evaluator reports them at evaluation time; the
// constraint solver validates constraints at spec-construction time, so
// the shift is invisible there).
//
// Compile(e, ix) agrees with Evaluator.True(e, env) on every row/env pair
// that binds the same values — the golden equivalence property the
// constraint solver relies on.
func (ev *Evaluator) Compile(e Expr, colIndex map[string]int) (Pred, error) {
	p, err := ev.CompileSweep(e, colIndex, -1)
	if err != nil {
		return nil, err
	}
	// No sweep column means no cache slots, so a nil Instance is never
	// dereferenced and the closure stays safe for concurrent use.
	return func(row []rel.Value) (bool, error) {
		return p.Eval(nil, row)
	}, nil
}

// errUnboundCol marks an expression the query planner could not fully
// bind to row positions; CompileBound callers fall back to interpreted
// evaluation, whose name resolution reports the identical unknown-column
// or ambiguity errors the unplanned path always produced.
var errUnboundCol = errors.New("sqlmini: expression not fully plan-bound")

// CompileBound lowers a plan-bound expression — one whose column
// references bindExpr already replaced with boundCol positions — into a
// Pred over the frame's positional rows. Any remaining bare Col (unknown
// or ambiguous at plan time) aborts compilation with errUnboundCol.
func (ev *Evaluator) CompileBound(e Expr) (Pred, error) {
	cp, err := ev.CompileBoundCodes(e)
	if err != nil {
		return nil, err
	}
	return func(row []rel.Value) (bool, error) {
		crow := make([]uint32, len(row))
		for i, v := range row {
			crow[i] = dict.Code(v)
		}
		return cp(crow)
	}, nil
}

// CompileBoundCodes is CompileBound over dictionary-code rows: the form
// the executor's morsel filter loops and hash-join residues evaluate
// directly against frame code rows. It is the query executor's
// counterpart of the constraint solver's Compile: the planner binds once,
// and the per-row filter loop then runs specialized closures instead of
// walking the AST through an Env.
//
// The NULL dialect and function registry are captured at compile time, so
// compiled plans are cached per dialect (see planEntry) and invalidated
// when a function is registered.
func (ev *Evaluator) CompileBoundCodes(e Expr) (CodePred, error) {
	c := &compiler{ev: ev, sweep: -1, bound: true}
	root, _, err := c.bool(e)
	if err != nil {
		return nil, err
	}
	p := &Program{root: root}
	return func(crow []uint32) (bool, error) {
		return p.EvalCodes(nil, crow)
	}, nil
}

// CompileSweep is Compile for sweep evaluation: the caller declares that
// between NextRow calls only the column at position sweep changes, and
// the compiler gives every maximal subtree that does not read that column
// a cache slot, evaluated once per generation. The constraint solver
// sweeps a candidate row's newest column across its domain; with the
// paper's rule-chain constraints this caches every rule condition (input
// columns only) across the whole domain sweep.
//
// Caching assumes registered Funcs are pure: a Func over sweep-stable
// arguments is invoked once per generation, not once per evaluation.
func (ev *Evaluator) CompileSweep(e Expr, colIndex map[string]int, sweep int) (*Program, error) {
	c := &compiler{ev: ev, ix: colIndex, sweep: sweep}
	root, _, err := c.bool(e)
	if err != nil {
		return nil, err
	}
	return &Program{root: root, triSlots: c.triSlots, valSlots: c.valSlots}, nil
}

// compiler carries compile-time state: the column binding, the sweep
// column (-1 when absent), the cache-slot counters, and whether column
// references resolve through pre-bound positions (CompileBound) or the
// name index (Compile/CompileSweep).
type compiler struct {
	ev       *Evaluator
	ix       map[string]int
	sweep    int
	bound    bool
	triSlots int
	valSlots int
}

// cacheTri gives a sweep-stable condition subtree a cache slot. maxPos is
// the highest row position the subtree reads (-1 for none).
func (c *compiler) cacheTri(fn triFn, maxPos int) triFn {
	if c.sweep < 0 || maxPos >= c.sweep {
		return fn
	}
	slot := c.triSlots
	c.triSlots++
	return func(in *Instance, crow []uint32) (tri, error) {
		if in.triMemo[slot] == in.gen {
			return in.tris[slot], nil
		}
		t, err := fn(in, crow)
		if err != nil {
			return t, err
		}
		in.triMemo[slot] = in.gen
		in.tris[slot] = t
		return t, nil
	}
}

// cacheVal is cacheTri for value subtrees.
func (c *compiler) cacheVal(fn valFn, maxPos int) valFn {
	if c.sweep < 0 || maxPos >= c.sweep {
		return fn
	}
	slot := c.valSlots
	c.valSlots++
	return func(in *Instance, crow []uint32) (rel.Value, error) {
		if in.valMemo[slot] == in.gen {
			return in.vals[slot], nil
		}
		v, err := fn(in, crow)
		if err != nil {
			return v, err
		}
		in.valMemo[slot] = in.gen
		in.vals[slot] = v
		return v, nil
	}
}

func maxPos(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// bool compiles e as a condition, returning the closure and the highest
// row position it reads. It mirrors Evaluator.Bool: Bool(e) ==
// triOf(Eval(e)) for every node, so recursing structurally through
// ternaries and cases preserves the interpreted semantics.
func (c *compiler) bool(e Expr) (triFn, int, error) {
	switch x := e.(type) {
	case Lit:
		t := triOf(x.Val)
		return func(*Instance, []uint32) (tri, error) { return t, nil }, -1, nil
	case Unary:
		inner, mp, err := c.bool(x.X)
		if err != nil {
			return nil, 0, err
		}
		return func(in *Instance, crow []uint32) (tri, error) {
			t, err := inner(in, crow)
			return -t, err // NOT flips true/false, keeps unknown
		}, mp, nil
	case Binary:
		switch x.Op {
		case "AND", "OR":
			l, lp, err := c.bool(x.L)
			if err != nil {
				return nil, 0, err
			}
			r, rp, err := c.bool(x.R)
			if err != nil {
				return nil, 0, err
			}
			mp := maxPos(lp, rp)
			if x.Op == "AND" {
				return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
					lt, err := l(in, crow)
					if err != nil {
						return triUnknown, err
					}
					if lt == triFalse {
						return triFalse, nil
					}
					rt, err := r(in, crow)
					if err != nil {
						return triUnknown, err
					}
					return triMin(lt, rt), nil
				}, mp), mp, nil
			}
			return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
				lt, err := l(in, crow)
				if err != nil {
					return triUnknown, err
				}
				if lt == triTrue {
					return triTrue, nil
				}
				rt, err := r(in, crow)
				if err != nil {
					return triUnknown, err
				}
				return triMax(lt, rt), nil
			}, mp), mp, nil
		default:
			return c.compare(x)
		}
	case InList:
		return c.in(x)
	case IsNull:
		if cf, mp, ok, err := c.code(x.X); err != nil {
			return nil, 0, err
		} else if ok {
			neg := x.Negate
			return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
				cv, err := cf(in, crow)
				if err != nil {
					return triUnknown, err
				}
				return triBool((cv == rel.NullCode) != neg), nil
			}, mp), mp, nil
		}
		inner, mp, err := c.val(x.X)
		if err != nil {
			return nil, 0, err
		}
		neg := x.Negate
		return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
			v, err := inner(in, crow)
			if err != nil {
				return triUnknown, err
			}
			return triBool(v.IsNull() != neg), nil
		}, mp), mp, nil
	case Between:
		return c.between(x)
	case Ternary:
		cond, cp, err := c.bool(x.Cond)
		if err != nil {
			return nil, 0, err
		}
		then, tp, err := c.bool(x.Then)
		if err != nil {
			return nil, 0, err
		}
		els, ep, err := c.bool(x.Else)
		if err != nil {
			return nil, 0, err
		}
		mp := maxPos(cp, maxPos(tp, ep))
		return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
			t, err := cond(in, crow)
			if err != nil {
				return triUnknown, err
			}
			// Unknown behaves as false: the else branch (paper's ternary).
			if t == triTrue {
				return then(in, crow)
			}
			return els(in, crow)
		}, mp), mp, nil
	case Case:
		conds := make([]triFn, len(x.Whens))
		vals := make([]triFn, len(x.Whens))
		mp := -1
		for i, w := range x.Whens {
			fn, p, err := c.bool(w.Cond)
			if err != nil {
				return nil, 0, err
			}
			conds[i], mp = fn, maxPos(mp, p)
			if fn, p, err = c.bool(w.Val); err != nil {
				return nil, 0, err
			}
			vals[i], mp = fn, maxPos(mp, p)
		}
		var els triFn
		if x.Else != nil {
			fn, p, err := c.bool(x.Else)
			if err != nil {
				return nil, 0, err
			}
			els, mp = fn, maxPos(mp, p)
		}
		return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
			for i, cond := range conds {
				t, err := cond(in, crow)
				if err != nil {
					return triUnknown, err
				}
				if t == triTrue {
					return vals[i](in, crow)
				}
			}
			if els != nil {
				return els(in, crow)
			}
			return triUnknown, nil // CASE with no match yields NULL
		}, mp), mp, nil
	default:
		// Col, boundCol, Call: evaluate as a value and take its truth.
		v, mp, err := c.val(e)
		if err != nil {
			return nil, 0, err
		}
		return func(in *Instance, crow []uint32) (tri, error) {
			val, err := v(in, crow)
			if err != nil {
				return triUnknown, err
			}
			return triOf(val), nil
		}, mp, nil
	}
}

// colPos resolves a column reference to its row position, honoring the
// bound/unbound compilation mode. ok=false with a nil error means the
// node is not a column reference at all.
func (c *compiler) colPos(e Expr) (idx int, rendered string, ok bool, err error) {
	switch x := e.(type) {
	case Col:
		if c.bound {
			// A bare Col surviving plan-time binding means the planner could
			// not resolve it (unknown or ambiguous); the interpreted path
			// owns that diagnosis.
			return 0, "", false, errUnboundCol
		}
		idx, found := c.ix[x.Name]
		if !found {
			return 0, "", false, fmt.Errorf("%w: %s", ErrUnknownColumn, x.String())
		}
		return idx, x.String(), true, nil
	case boundCol:
		if c.bound {
			return x.Idx, x.Col.String(), true, nil
		}
		// Positions bound against a table during query planning are stale
		// here; rebind by name against the compile-time index.
		idx, found := c.ix[x.Name]
		if !found {
			return 0, "", false, fmt.Errorf("%w: %s", ErrUnknownColumn, x.Col.String())
		}
		return idx, x.Col.String(), true, nil
	}
	return 0, "", false, nil
}

// code compiles e as a dictionary-code producer when possible: literals
// intern at compile time, column references load crow[idx]. ok=false
// means e needs full value evaluation (calls, ternaries, cases).
func (c *compiler) code(e Expr) (codeFn, int, bool, error) {
	if x, isLit := e.(Lit); isLit {
		cc := dict.Code(x.Val)
		return func(*Instance, []uint32) (uint32, error) { return cc, nil }, -1, true, nil
	}
	idx, rendered, ok, err := c.colPos(e)
	if err != nil || !ok {
		return nil, 0, false, err
	}
	return func(_ *Instance, crow []uint32) (uint32, error) {
		if idx >= len(crow) {
			return rel.NullCode, fmt.Errorf("%w: %s (position %d beyond row of %d)", ErrUnknownColumn, rendered, idx, len(crow))
		}
		return crow[idx], nil
	}, idx, true, nil
}

// val compiles e as a value producer, mirroring Evaluator.Eval. Column
// loads decode their code through the shared dictionary.
func (c *compiler) val(e Expr) (valFn, int, error) {
	switch x := e.(type) {
	case Lit:
		v := x.Val
		return func(*Instance, []uint32) (rel.Value, error) { return v, nil }, -1, nil
	case Col, boundCol:
		idx, rendered, ok, err := c.colPos(e)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("%w: %v", ErrUnknownColumn, e)
		}
		return func(_ *Instance, crow []uint32) (rel.Value, error) {
			if idx >= len(crow) {
				return rel.Null(), fmt.Errorf("%w: %s (position %d beyond row of %d)", ErrUnknownColumn, rendered, idx, len(crow))
			}
			return dict.Value(crow[idx]), nil
		}, idx, nil
	case Call:
		fn, ok := c.ev.Funcs[x.Name]
		if !ok {
			return nil, 0, fmt.Errorf("%w: %s", ErrUnknownFunc, x.Name)
		}
		args := make([]valFn, len(x.Args))
		mp := -1
		for i, a := range x.Args {
			afn, p, err := c.val(a)
			if err != nil {
				return nil, 0, err
			}
			args[i], mp = afn, maxPos(mp, p)
		}
		return c.cacheVal(func(in *Instance, crow []uint32) (rel.Value, error) {
			vals := make([]rel.Value, len(args))
			for i, a := range args {
				v, err := a(in, crow)
				if err != nil {
					return rel.Null(), err
				}
				vals[i] = v
			}
			return fn(vals)
		}, mp), mp, nil
	case Ternary:
		// As a value, a ternary yields the chosen branch's value (which
		// need not be boolean); only the condition is three-valued.
		cond, cp, err := c.bool(x.Cond)
		if err != nil {
			return nil, 0, err
		}
		then, tp, err := c.val(x.Then)
		if err != nil {
			return nil, 0, err
		}
		els, ep, err := c.val(x.Else)
		if err != nil {
			return nil, 0, err
		}
		mp := maxPos(cp, maxPos(tp, ep))
		return c.cacheVal(func(in *Instance, crow []uint32) (rel.Value, error) {
			t, err := cond(in, crow)
			if err != nil {
				return rel.Null(), err
			}
			// Unknown behaves as false: the else branch (paper's ternary).
			if t == triTrue {
				return then(in, crow)
			}
			return els(in, crow)
		}, mp), mp, nil
	case Case:
		// As a value, CASE yields the first matching WHEN's value; no
		// match and no ELSE yields NULL, exactly as Evaluator.Eval.
		conds := make([]triFn, len(x.Whens))
		vals := make([]valFn, len(x.Whens))
		mp := -1
		for i, w := range x.Whens {
			fn, p, err := c.bool(w.Cond)
			if err != nil {
				return nil, 0, err
			}
			conds[i], mp = fn, maxPos(mp, p)
			vfn, p, err := c.val(w.Val)
			if err != nil {
				return nil, 0, err
			}
			vals[i], mp = vfn, maxPos(mp, p)
		}
		var els valFn
		if x.Else != nil {
			fn, p, err := c.val(x.Else)
			if err != nil {
				return nil, 0, err
			}
			els, mp = fn, maxPos(mp, p)
		}
		return c.cacheVal(func(in *Instance, crow []uint32) (rel.Value, error) {
			for i, cond := range conds {
				t, err := cond(in, crow)
				if err != nil {
					return rel.Null(), err
				}
				if t == triTrue {
					return vals[i](in, crow)
				}
			}
			if els != nil {
				return els(in, crow)
			}
			return rel.Null(), nil
		}, mp), mp, nil
	default:
		// Every other node is a condition; its value is its truth value.
		b, mp, err := c.bool(e)
		if err != nil {
			return nil, 0, err
		}
		return func(in *Instance, crow []uint32) (rel.Value, error) {
			t, err := b(in, crow)
			if err != nil {
				return rel.Null(), err
			}
			return triVal(t), nil
		}, mp, nil
	}
}

// compare specializes a comparison on its operator and the NULL dialect
// at compile time. Equality over code-loadable operands (columns and
// literals) is a pure integer compare: the shared dictionary is injective,
// so equal codes ⇔ equal values, and code 0 is NULL in both dialects.
func (c *compiler) compare(x Binary) (triFn, int, error) {
	nullEq := c.ev.NullEq
	switch x.Op {
	case "=", "<>":
		lc, lp, lok, err := c.code(x.L)
		if err != nil {
			return nil, 0, err
		}
		rc, rp, rok, err := c.code(x.R)
		if err != nil {
			return nil, 0, err
		}
		if lok && rok {
			mp := maxPos(lp, rp)
			want := x.Op == "="
			fn := func(in *Instance, crow []uint32) (tri, error) {
				la, err := lc(in, crow)
				if err != nil {
					return triUnknown, err
				}
				ra, err := rc(in, crow)
				if err != nil {
					return triUnknown, err
				}
				if !nullEq && (la == rel.NullCode || ra == rel.NullCode) {
					return triUnknown, nil
				}
				return triBool((la == ra) == want), nil
			}
			return c.cacheTri(fn, mp), mp, nil
		}
	}
	l, lp, err := c.val(x.L)
	if err != nil {
		return nil, 0, err
	}
	r, rp, err := c.val(x.R)
	if err != nil {
		return nil, 0, err
	}
	mp := maxPos(lp, rp)
	var fn triFn
	switch x.Op {
	case "=", "<>":
		want := x.Op == "="
		fn = func(in *Instance, crow []uint32) (tri, error) {
			lv, err := l(in, crow)
			if err != nil {
				return triUnknown, err
			}
			rv, err := r(in, crow)
			if err != nil {
				return triUnknown, err
			}
			if !nullEq && (lv.IsNull() || rv.IsNull()) {
				return triUnknown, nil
			}
			return triBool(lv.Equal(rv) == want), nil
		}
	case "<", "<=", ">", ">=":
		op := x.Op
		fn = func(in *Instance, crow []uint32) (tri, error) {
			lv, err := l(in, crow)
			if err != nil {
				return triUnknown, err
			}
			rv, err := r(in, crow)
			if err != nil {
				return triUnknown, err
			}
			return compareVals(op, lv, rv, nullEq), nil
		}
	default:
		return nil, 0, fmt.Errorf("sqlmini: cannot compile operator %q", x.Op)
	}
	return c.cacheTri(fn, mp), mp, nil
}

// in compiles membership tests. When every set element is a literal — the
// overwhelmingly common shape after ResolveSymbols turns bare identifiers
// into string literals — the set compiles to a hash set of dictionary
// codes, turning the O(|set|) scan per candidate into one integer-keyed
// lookup with no Value boxing.
func (c *compiler) in(x InList) (triFn, int, error) {
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
		if cf, mp, ok, err := c.code(x.X); err != nil {
			return nil, 0, err
		} else if ok {
			return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
				cv, err := cf(in, crow)
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
			}, mp), mp, nil
		}
		// Computed operand (call, case): evaluate the value, then intern-
		// free membership via a read-only dictionary probe.
		inner, mp, err := c.val(x.X)
		if err != nil {
			return nil, 0, err
		}
		return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
			v, err := inner(in, crow)
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
		}, mp), mp, nil
	}

	// General form: compiled element expressions, scanned with the same
	// short-circuit as the interpreter.
	inner, mp, err := c.val(x.X)
	if err != nil {
		return nil, 0, err
	}
	set := make([]valFn, len(x.Set))
	for i, s := range x.Set {
		fn, p, err := c.val(s)
		if err != nil {
			return nil, 0, err
		}
		set[i], mp = fn, maxPos(mp, p)
	}
	return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
		v, err := inner(in, crow)
		if err != nil {
			return triUnknown, err
		}
		res := triFalse
		for _, s := range set {
			sv, err := s(in, crow)
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
	}, mp), mp, nil
}

func (c *compiler) between(x Between) (triFn, int, error) {
	inner, mp, err := c.val(x.X)
	if err != nil {
		return nil, 0, err
	}
	lo, p, err := c.val(x.Lo)
	if err != nil {
		return nil, 0, err
	}
	mp = maxPos(mp, p)
	hi, p, err := c.val(x.Hi)
	if err != nil {
		return nil, 0, err
	}
	mp = maxPos(mp, p)
	neg := x.Negate
	nullEq := c.ev.NullEq
	return c.cacheTri(func(in *Instance, crow []uint32) (tri, error) {
		v, err := inner(in, crow)
		if err != nil {
			return triUnknown, err
		}
		lv, err := lo(in, crow)
		if err != nil {
			return triUnknown, err
		}
		hv, err := hi(in, crow)
		if err != nil {
			return triUnknown, err
		}
		res := triMin(compareVals(">=", v, lv, nullEq), compareVals("<=", v, hv, nullEq))
		if neg {
			res = -res
		}
		return res, nil
	}, mp), mp, nil
}
