package sqlmini

import (
	"sync"

	"coherdb/internal/rel"
)

// Column-at-a-time sweep evaluation for the constraint solver, which
// extends a candidate row by sweeping one column across its domain. Each
// compiled node evaluates the WHOLE domain per call, so sweep-stable
// subtrees are computed once per row and broadcast, a ternary with a
// stable condition descends only the branch it takes, and the
// sweep-reading leaves (=, <>, IN, IS NULL against the swept column)
// become tight loops over the domain's code vector. Subtrees the
// vectorizer cannot lower — ordered comparisons, function calls over the
// swept column — fall back to the compiled closure looped per domain
// value; compilation therefore never declines.
//
// Equivalence: for every (row, domain value) pair, the lane written here
// equals Evaluator.Bool on the extended row. AND/OR combine lanes with the
// same Kleene triMin/triMax the compiled closures use (per-lane
// short-circuit values agree: triMin(false, x) is false regardless of x),
// and a ternary's unknown-condition lanes take the else branch exactly as
// Evaluator.Bool does. Only error ORDER can differ — row-at-a-time
// evaluation stops at the first failing (value, node) in row-major order,
// the vectorized sweep in node-major order — which is invisible for the
// solver's pure, total constraint vocabulary.

// svFn evaluates one compiled condition node for a whole domain sweep:
// out[i] is the node's truth on crow with the sweep column set to
// domain[i]. crow's sweep position is scratch owned by the evaluation
// (fallback nodes write it); all other positions are read-only.
type svFn func(in *Instance, crow []uint32, domain []uint32, out []tri) error

// SweepProg is a compiled column-at-a-time sweep program: one or more
// branch expressions over the same sweep column. It holds no mutable
// state; evaluation goes through a per-worker Instance.
type SweepProg struct {
	branches []svFn
	svSlots  int
	insts    sync.Pool
}

// Instance is one worker's lane buffers for a SweepProg's AND/OR/ternary
// combiners. Instances are not safe for concurrent use; each goroutine
// evaluates through its own.
type Instance struct {
	bufs [][]tri
}

// Instance returns evaluation state for p — one lane buffer per combiner
// slot plus one for the root's output — reused from the program's pool
// when possible so short solves don't pay the allocation on every
// extension step. Return it with Release.
func (p *SweepProg) Instance() *Instance {
	if in, _ := p.insts.Get().(*Instance); in != nil {
		return in
	}
	return &Instance{bufs: make([][]tri, p.svSlots+1)}
}

// Release puts an instance back into p's pool.
func (p *SweepProg) Release(in *Instance) { p.insts.Put(in) }

// EvalSweepTrue evaluates the program's branch for every domain value and
// clears keep[i] for the lanes that are not definitely true (WHERE
// semantics), leaving already-false lanes false — the AND-combining shape
// the solver's per-column constraint conjunction wants. It reports whether
// any lane is still true, so callers can stop conjoining early. branch
// indexes the expressions the program was compiled from. len(keep) must
// equal len(domain); crow must cover the sweep column.
func (p *SweepProg) EvalSweepTrue(in *Instance, branch int, crow []uint32, domain []uint32, keep []bool) (bool, error) {
	out := in.buf(p.svSlots, len(domain))
	if err := p.branches[branch](in, crow, domain, out); err != nil {
		return false, err
	}
	any := false
	for i, t := range out {
		if t != triTrue {
			keep[i] = false
		} else if keep[i] {
			any = true
		}
	}
	return any, nil
}

// buf returns the instance's lane buffer for slot, grown to n lanes.
func (in *Instance) buf(slot, n int) []tri {
	b := in.bufs[slot]
	if cap(b) < n {
		b = make([]tri, n)
		in.bufs[slot] = b
	}
	return b[:n]
}

// CompileSweepBranches lowers each of es into a column-at-a-time sweep
// program over the column at position sweep: branch i of the program is
// es[i], and every branch runs through the same Instance. The constraint
// solver compiles a whole constraint as one branch, or the distinct then
// and else branches of a rule chain and lets a Selector pick the branch
// per row. Unknown columns and functions are the same compile-time errors
// CompileCodes reports; see the equivalence note above.
func (ev *Evaluator) CompileSweepBranches(es []Expr, colIndex map[string]int, sweep int) (*SweepProg, error) {
	s := &sweepCompiler{c: &compiler{ev: ev, ix: colIndex}, sweep: sweep}
	branches := make([]svFn, len(es))
	for i, e := range es {
		fn, err := s.comp(e)
		if err != nil {
			return nil, err
		}
		branches[i] = fn
	}
	return &SweepProg{branches: branches, svSlots: s.svSlots}, nil
}

// Selector decides which arm of a rule chain a row takes: the index of the
// first of the chain's conditions that is definitely true, Unknown counting
// as false exactly as for a ternary's condition. When the conditions do
// not read a sweep column, one selection serves a row's whole domain sweep
// and every chain that tests the same conditions in the same order.
type Selector struct {
	conds []triFn
}

// CompileSelector compiles conds, in priority order, into a Selector over
// code rows bound by colIndex. It accepts what CompileCodes accepts, and
// like a CodePred it is safe for concurrent use.
func (ev *Evaluator) CompileSelector(conds []Expr, colIndex map[string]int) (*Selector, error) {
	c := &compiler{ev: ev, ix: colIndex}
	fns := make([]triFn, len(conds))
	for i, e := range conds {
		fn, err := c.bool(e)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return &Selector{conds: fns}, nil
}

// Select returns the index of the first condition definitely true on crow,
// or the number of conditions (the else arm) when none is. A failing
// condition ends the walk with its error, as it ends the chain's.
func (s *Selector) Select(crow []uint32) (int, error) {
	for i, fn := range s.conds {
		t, err := fn(crow)
		if err != nil {
			return 0, err
		}
		if t == triTrue {
			return i, nil
		}
	}
	return len(s.conds), nil
}

// sweepCompiler drives sweep vectorization over the column at position
// sweep, delegating row-at-a-time subtrees to c.
type sweepCompiler struct {
	c       *compiler
	sweep   int
	svSlots int
}

// comp compiles e structurally: subtrees that never read the sweep column
// broadcast one scalar evaluation, sweep-reading boolean structure lowers
// to lane combiners, sweep-reading code-space leaves to tight loops, and
// everything else to the scalar-per-value fallback.
func (s *sweepCompiler) comp(e Expr) (svFn, error) {
	reads, err := s.readsSweep(e)
	if err != nil {
		return nil, err
	}
	if !reads {
		return s.broadcast(e)
	}
	switch x := e.(type) {
	case Unary:
		inner, err := s.comp(x.X)
		if err != nil {
			return nil, err
		}
		return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
			if err := inner(in, crow, domain, out); err != nil {
				return err
			}
			for i, t := range out {
				out[i] = -t // NOT flips true/false, keeps unknown
			}
			return nil
		}, nil
	case Binary:
		switch x.Op {
		case "AND", "OR":
			return s.andOr(x)
		case "=", "<>":
			return s.compare(x)
		}
		// Ordered comparisons need decoded values (codes are not
		// order-preserving); the fallback's scalar closure decodes per lane.
		return s.fallback(e)
	case InList:
		return s.in(x)
	case IsNull:
		return s.isNull(x)
	case Ternary:
		return s.ternary(x)
	default:
		// Between, Case, Call, bare truth-valued sweep column.
		return s.fallback(e)
	}
}

// broadcast compiles a sweep-stable subtree: one row-at-a-time
// evaluation per call, copied into every lane.
func (s *sweepCompiler) broadcast(e Expr) (svFn, error) {
	fn, err := s.c.bool(e)
	if err != nil {
		return nil, err
	}
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		t, err := fn(crow)
		if err != nil {
			return err
		}
		for i := range out {
			out[i] = t
		}
		return nil
	}, nil
}

// fallback compiles the subtree as a compiled closure looped per domain
// value through the crow sweep position, so its sweep-stable subtrees are
// re-evaluated once per lane. No in-repo spec compiles such a node: the
// eight generated controllers, the Fig. 3 fragment and specs/*.spec read
// their swept columns only through =, <>, IN and IS NULL.
func (s *sweepCompiler) fallback(e Expr) (svFn, error) {
	fn, err := s.c.bool(e)
	if err != nil {
		return nil, err
	}
	sweep := s.sweep
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		for i, d := range domain {
			crow[sweep] = d
			t, err := fn(crow)
			if err != nil {
				return err
			}
			out[i] = t
		}
		return nil
	}, nil
}

// andOr lowers AND/OR to lane-wise Kleene min/max with a density
// short-circuit: when the left side already decides every lane (all false
// under AND, all true under OR) the right side is skipped outright, the
// vector analogue of the scalar closures' per-row short-circuit.
func (s *sweepCompiler) andOr(x Binary) (svFn, error) {
	l, err := s.comp(x.L)
	if err != nil {
		return nil, err
	}
	r, err := s.comp(x.R)
	if err != nil {
		return nil, err
	}
	slot := s.svSlots
	s.svSlots++
	isAnd := x.Op == "AND"
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		if err := l(in, crow, domain, out); err != nil {
			return err
		}
		decided := true
		if isAnd {
			for _, t := range out {
				if t != triFalse {
					decided = false
					break
				}
			}
		} else {
			for _, t := range out {
				if t != triTrue {
					decided = false
					break
				}
			}
		}
		if decided {
			return nil
		}
		rb := in.buf(slot, len(out))
		if err := r(in, crow, domain, rb); err != nil {
			return err
		}
		if isAnd {
			for i, t := range rb {
				out[i] = triMin(out[i], t)
			}
		} else {
			for i, t := range rb {
				out[i] = triMax(out[i], t)
			}
		}
		return nil
	}, nil
}

// compare lowers =/<> over code-loadable operands, at least one of which
// is the swept column: the stable side loads once per call, the swept side
// is the domain vector itself. Operands outside code space (calls, cases)
// fall back.
func (s *sweepCompiler) compare(x Binary) (svFn, error) {
	lc, lok, err := s.c.code(x.L)
	if err != nil {
		return nil, err
	}
	rc, rok, err := s.c.code(x.R)
	if err != nil {
		return nil, err
	}
	if !lok || !rok {
		return s.fallback(x)
	}
	nullEq := s.c.ev.NullEq
	want := x.Op == "="
	// Both operands are literals or resolved columns, so neither walk can
	// fail.
	lSweep, _ := s.readsSweep(x.L)
	rSweep, _ := s.readsSweep(x.R)
	if !lSweep && !rSweep {
		// readsSweep said the node reads the sweep column, so one operand
		// must be it once both lowered to code loads; defensive fallback.
		return s.fallback(x)
	}
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		var other uint32
		var err error
		switch {
		case lSweep && rSweep:
			// Same column on both sides: equal codes by construction.
			for i, d := range domain {
				if !nullEq && d == rel.NullCode {
					out[i] = triUnknown
					continue
				}
				out[i] = triBool(want)
			}
			return nil
		case lSweep:
			other, err = rc(crow)
		default:
			other, err = lc(crow)
		}
		if err != nil {
			return err
		}
		if nullEq {
			// Constraint dialect: NULL is an ordinary code, one integer
			// compare per lane.
			for i, d := range domain {
				out[i] = triBool((d == other) == want)
			}
			return nil
		}
		if other == rel.NullCode {
			for i := range out {
				out[i] = triUnknown
			}
			return nil
		}
		for i, d := range domain {
			if d == rel.NullCode {
				out[i] = triUnknown
				continue
			}
			out[i] = triBool((d == other) == want)
		}
		return nil
	}, nil
}

// in lowers membership of the swept column in a literal set to one hash
// probe per lane against codes interned at compile time — the sweep-vector
// form of the scalar compiler's IN specialization, with identical 3VL
// casework.
func (s *sweepCompiler) in(x InList) (svFn, error) {
	for _, e := range x.Set {
		if _, ok := e.(Lit); !ok {
			return s.fallback(x)
		}
	}
	idx, _, ok, err := s.c.colPos(x.X)
	if err != nil {
		return nil, err
	}
	if !ok || idx != s.sweep {
		return s.fallback(x)
	}
	nullEq := s.c.ev.NullEq
	neg := x.Negate
	codes := make(map[uint32]struct{}, len(x.Set))
	hasNull := false
	for _, e := range x.Set {
		v := e.(Lit).Val
		if v.IsNull() {
			hasNull = true
			if !nullEq {
				continue // NULL elements never match in 3VL; they only taint
			}
		}
		codes[dict.Code(v)] = struct{}{}
	}
	empty := len(x.Set) == 0
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		for i, cv := range domain {
			var res tri
			switch {
			case nullEq:
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
			out[i] = res
		}
		return nil
	}, nil
}

// isNull lowers IS [NOT] NULL of the swept column to a code compare per
// lane; NULL is code 0 in both dialects.
func (s *sweepCompiler) isNull(x IsNull) (svFn, error) {
	idx, _, ok, err := s.c.colPos(x.X)
	if err != nil {
		return nil, err
	}
	if !ok || idx != s.sweep {
		return s.fallback(x)
	}
	neg := x.Negate
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		for i, d := range domain {
			out[i] = triBool((d == rel.NullCode) != neg)
		}
		return nil
	}, nil
}

// ternary lowers cond ? then : else: all three lane vectors are evaluated
// and selected per lane, with all-true/all-other short-circuits. A
// sweep-stable condition broadcasts one truth value to every lane, so such
// a ternary descends only the branch it takes. (The solver does not send
// the protocols' rule chains through here: their stable conditions become
// a Selector, evaluated once per row for all chains that share them.)
func (s *sweepCompiler) ternary(x Ternary) (svFn, error) {
	cond, err := s.comp(x.Cond)
	if err != nil {
		return nil, err
	}
	then, err := s.comp(x.Then)
	if err != nil {
		return nil, err
	}
	els, err := s.comp(x.Else)
	if err != nil {
		return nil, err
	}
	slot := s.svSlots
	s.svSlots += 2
	return func(in *Instance, crow []uint32, domain []uint32, out []tri) error {
		if err := cond(in, crow, domain, out); err != nil {
			return err
		}
		allTrue, noneTrue := true, true
		for _, t := range out {
			if t == triTrue {
				noneTrue = false
			} else {
				allTrue = false
			}
		}
		if allTrue {
			return then(in, crow, domain, out)
		}
		if noneTrue {
			return els(in, crow, domain, out)
		}
		tb := in.buf(slot, len(out))
		if err := then(in, crow, domain, tb); err != nil {
			return err
		}
		eb := in.buf(slot+1, len(out))
		if err := els(in, crow, domain, eb); err != nil {
			return err
		}
		for i, t := range out {
			if t == triTrue {
				out[i] = tb[i]
			} else {
				out[i] = eb[i]
			}
		}
		return nil
	}, nil
}

// readsSweep reports whether any column reference in e resolves to the
// sweep position. Unknown columns error exactly as compilation would; the
// walk stops at the first sweep read or error.
func (s *sweepCompiler) readsSweep(e Expr) (reads bool, err error) {
	walk(e, func(ref Expr) bool {
		var idx int
		var ok bool
		idx, _, ok, err = s.c.colPos(ref)
		reads = err == nil && ok && idx == s.sweep
		return err == nil && !reads
	})
	return reads, err
}
