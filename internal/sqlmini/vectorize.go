package sqlmini

import (
	"slices"
	"sync"

	"coherdb/internal/rel"
)

// Vectorized predicate execution: every predicate a SELECT evaluates —
// pushed scan conjuncts, post-join residues, nested-loop ON and HAVING —
// every UPDATE/DELETE WHERE conjunct, every constraint the solver sweeps
// and every condition of a rule-chain family's Selector compiles to an
// EvalVec form that evaluates a whole batch of column vectors per call
// instead of one code row at a time. The unit of work is a selection
// vector — the strictly increasing row indices still alive — and every
// kernel filters it in place:
//
//   - =, <>, IN and IS NULL over dictionary codes compile to tight
//     compare loops over one column vector (codes are injective, so
//     equality never decodes; NULL is code 0 in both dialects);
//   - AND is a kernel cascade over the shrinking selection (the second
//     conjunct only sees survivors, which is also the short-circuit:
//     an empty selection skips the rest of the chain);
//   - the ternary c ? a : b runs c on a copy, sends the rows it keeps to
//     a and the rest (unknown included) to b, and merges the two sorted
//     survivor lists; when c keeps every row or none, the whole
//     selection goes down one branch. OR is the ternary whose then
//     branch keeps every row, and CASE lowers to a ternary chain (with
//     no ELSE the result is NULL, which is never kept);
//   - NOT rewrites through Kleene-valid identities (De Morgan, operator
//     flips, NOT (c ? a : b) as c ? NOT a : NOT b) so negation never
//     needs a complement set;
//   - any other shape that reads exactly one column — range compares,
//     BETWEEN, registered calls — falls back to the compiled closure
//     behind a per-code verdict memo: each distinct dictionary code is
//     evaluated once and the vector loop reuses the verdict, which on
//     low-cardinality protocol columns is almost as tight as a native
//     kernel;
//   - any other shape that reads two or more columns runs the compiled
//     closure once per selected row, over a scratch row gathered from
//     the columns it reads.
//
// Column references resolve to vector positions when the predicate
// compiles: the positions the query planner bound (CompileBoundVec), or
// a name index (CompileVec). The constraint solver uses the latter: its
// batch is one group of candidate rows, the swept column's domain beside
// the group's other codes repeated across the lanes, so a condition that
// reads only the repeated columns keeps every lane or none and its
// ternary descends one branch. A family's Selector runs over the partial
// table's own column vectors, one lane per row whose arm is wanted. A
// conjunct that does not compile (an unknown function, or a column the
// planner could not bind) fails its statement when it plans, so every
// statement predicate runs on these kernels.
//
// Selection semantics are WHERE semantics: a row survives iff the
// conjunct is definitely true. Kernels therefore drop unknown outright,
// which is what makes the NOT rewrites (rather than complements) exact.
//
// Evaluation order differs from row-at-a-time evaluation — conjunct-major
// over a batch instead of row-major, and AND's right side never sees a
// row its left side left unknown — so when rows would error, which error
// surfaces (if any) can differ. That covers every SELECT predicate: a
// residue runs conjunct by conjunct over the joined frame, an ON over one
// left row's batch of right rows, and HAVING over the group frame. It
// covers selection too: a Selector runs its conditions condition-major
// over the batch, and although it retries a failing condition row by row
// so each row keeps only its own error, whether a row's condition errors
// at all follows the kernels' order. The
// compiled subset only errors on registered Funcs, which this codebase's
// workloads keep pure and total; the frozen scan-filter digests and the
// kernel-versus-interpreter tests pin the results.
//
// A VecPred is immutable after compilation and safe for concurrent use:
// all mutable evaluation state (scratch selections, verdict memos) lives
// in pooled vecStates, one checked out per EvalVec call, so the
// steady-state vectorized path allocates nothing (see
// TestVectorizedFilterAllocs). A predicate whose kernels keep no scratch
// — only =, <>, IN, IS NULL and column-free fallbacks under AND — is
// stateless: it evaluates without a vecState and never touches its pool,
// so a one-shot compile (a DML WHERE) costs no state or pool registration.

// memoCap bounds the per-code verdict memo of fallback kernels. Codes
// beyond it (a dictionary past 64k distinct values) evaluate through the
// compiled closure each time instead of growing the memo without bound.
const memoCap = 1 << 16

// vecKernel filters sel in place against the column vectors, returning
// the surviving prefix. sel is strictly increasing; kernels preserve
// that (they only compact forward).
type vecKernel func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error)

// vecState is one evaluation's mutable scratch: selection buffers for
// ternary nodes, verdict memos for fallback nodes, and a scratch row for
// their compiled closures. States are pooled per VecPred; memos persist
// across calls, which is sound because dictionary codes are append-only
// and the compiled closure's literals, dialect and functions are fixed at
// compile time (re-registering a function rebuilds the plan, or the
// spec's compiled constraints, VecPred included).
type vecState struct {
	bufs  [][]uint32
	memos [][]uint8
	crow  []uint32
}

// buf returns scratch selection buffer slot with room for n entries.
func (st *vecState) buf(slot, n int) []uint32 {
	b := st.bufs[slot]
	if cap(b) < n {
		b = make([]uint32, n)
		st.bufs[slot] = b
	}
	return b[:n]
}

// growMemo widens memo slot to cover code, returning the grown table.
// Entries are 0 (unset), 1 (keep) or 2 (drop).
func (st *vecState) growMemo(slot int, code uint32) []uint8 {
	n := len(st.memos[slot])
	if n == 0 {
		n = 256
	}
	for n <= int(code) {
		n *= 2
	}
	if n > memoCap {
		n = memoCap
	}
	m := make([]uint8, n)
	copy(m, st.memos[slot])
	st.memos[slot] = m
	return m
}

// VecPred is the vectorized form of a compiled WHERE conjunct.
type VecPred struct {
	kern      vecKernel
	cols      []int // positions of the column vectors the kernels read
	bufSlots  int
	memoSlots int
	crowLen   int
	pool      sync.Pool // *vecState
}

// Columns returns the positions of the column vectors a predicate
// CompileVec compiled reads, in the order compilation first resolved
// them; it is nil for CompileBoundVec's, whose planner placed the columns.
// The slice is shared and must not be modified.
func (p *VecPred) Columns() []int { return p.cols }

// EvalVec filters sel — strictly increasing row indices into the column
// vectors — in place and returns the surviving prefix. It is safe for
// concurrent use; each call of a predicate that keeps scratch checks a
// vecState out of the pool.
func (p *VecPred) EvalVec(cols [][]uint32, sel []uint32) ([]uint32, error) {
	if p.bufSlots == 0 && p.memoSlots == 0 && p.crowLen == 0 {
		return p.kern(nil, cols, sel)
	}
	st, _ := p.pool.Get().(*vecState)
	if st == nil {
		st = &vecState{
			bufs:  make([][]uint32, p.bufSlots),
			memos: make([][]uint8, p.memoSlots),
			crow:  make([]uint32, p.crowLen),
		}
	}
	out, err := p.kern(st, cols, sel)
	p.pool.Put(st)
	return out, err
}

// CompileBoundVec lowers a plan-bound conjunct into its vectorized form.
// It fails only where compileBoundVal fails: on an unknown function or
// a column reference the planner left unbound.
func (ev *Evaluator) CompileBoundVec(e Expr) (*VecPred, error) {
	return compileVec(compiler{ev: ev, bound: true}, e)
}

// CompileVec lowers e into its vectorized form over column vectors laid
// out by colIndex, which maps each referenced column name to its vector's
// position; the constraint solver decides a column's whole domain per
// call this way. It fails only where CompileCodes fails.
func (ev *Evaluator) CompileVec(e Expr, colIndex map[string]int) (*VecPred, error) {
	return compileVec(compiler{ev: ev, ix: colIndex}, e)
}

// Selector decides which arm of a rule chain each row of a batch takes:
// the index of the first of the chain's conditions that is definitely
// true, Unknown counting as false exactly as for a ternary's condition.
// When the conditions do not read a swept column, one selection serves a
// row's whole domain sweep and every chain that tests the same conditions
// in the same order.
type Selector struct {
	conds []*VecPred
}

// CompileSelector compiles conds, in priority order, into a Selector over
// column vectors laid out by colIndex, one CompileVec predicate per
// condition. It fails where CompileVec fails, and like a VecPred it is
// safe for concurrent use.
func (ev *Evaluator) CompileSelector(conds []Expr, colIndex map[string]int) (*Selector, error) {
	ps := make([]*VecPred, len(conds))
	for i, e := range conds {
		p, err := ev.CompileVec(e, colIndex)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return &Selector{conds: ps}, nil
}

// Select returns the arm of every row of sel, strictly increasing row
// indices into the column vectors, in sel's order: arms[k] is the index of
// the first condition definitely true on row sel[k], or the number of
// conditions (the else arm) when none is. Each condition runs once, as one
// kernel batch over the rows no earlier condition took. A condition that
// fails on its batch runs again on each of those rows alone: a row it
// fails on ends its walk there, as its chain would, with arms[k] = -1 and
// the error in errs[k], and the other rows go on. errs is nil when no row
// failed. sel is not modified.
func (s *Selector) Select(cols [][]uint32, sel []uint32) (arms []int32, errs []error) {
	arms = make([]int32, len(sel))
	rest := make([]int32, len(sel)) // indexes into sel of the rows still walking
	for k := range rest {
		arms[k], rest[k] = int32(len(s.conds)), int32(k)
	}
	batch := make([]uint32, len(sel))
	for i, c := range s.conds {
		if len(rest) == 0 {
			break
		}
		b := batch[:len(rest)]
		for j, k := range rest {
			b[j] = sel[k]
		}
		kept, err := c.EvalVec(cols, b)
		if err != nil {
			kept = b[:0]
			for _, k := range rest {
				one, err := c.EvalVec(cols, []uint32{sel[k]})
				if err != nil {
					if errs == nil {
						errs = make([]error, len(sel))
					}
					arms[k], errs[k] = -1, err
				}
				kept = append(kept, one...)
			}
		} else if len(kept) == 0 {
			continue
		}
		m, ki := 0, 0
		for _, k := range rest {
			if ki < len(kept) && kept[ki] == sel[k] {
				arms[k] = int32(i)
				ki++
			} else if arms[k] >= 0 {
				rest[m] = k
				m++
			}
		}
		rest = rest[:m]
	}
	return arms, errs
}

// compileVec is CompileBoundVec and CompileVec; c decides how column
// references resolve. It takes c by value: behind a pointer, escape
// analysis moved every plan-bound compile's compiler to the heap.
func compileVec(c compiler, e Expr) (*VecPred, error) {
	vc := &vecCompiler{c: c}
	k, err := vc.comp(e)
	if err != nil {
		return nil, err
	}
	return &VecPred{kern: k, cols: vc.cols, bufSlots: vc.bufSlots, memoSlots: vc.memoSlots, crowLen: vc.crowLen}, nil
}

// compileVecs lowers each bound conjunct through CompileBoundVec; the
// first conjunct that does not compile fails them all.
func compileVecs(ev *Evaluator, conjuncts []Expr) ([]*VecPred, error) {
	if len(conjuncts) == 0 {
		return nil, nil
	}
	out := make([]*VecPred, len(conjuncts))
	for i, c := range conjuncts {
		p, err := ev.CompileBoundVec(c)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// vecCompiler carries compile-time slot counters — ternary buffers,
// fallback memos, the scratch row's length (0 when no kernel gathers a
// row) — and, when names resolve through an index, the positions
// resolved so far. The inner compiler resolves column references,
// plan-bound or by name, and lowers fallback subtrees.
type vecCompiler struct {
	c         compiler
	cols      []int
	bufSlots  int
	memoSlots int
	crowLen   int
}

// col returns the vector position of a column reference, recording it
// when names resolve through an index. A reference that does not resolve
// is left to the fallback, whose compilation reports it.
func (vc *vecCompiler) col(e Expr) (int, bool) {
	idx, ok, err := vc.c.colPos(e)
	if !ok || err != nil {
		return 0, false
	}
	if !vc.c.bound && !slices.Contains(vc.cols, idx) {
		vc.cols = append(vc.cols, idx)
	}
	return idx, true
}

// operand classifies a code-loadable operand: an interned literal or a
// column's vector position.
func (vc *vecCompiler) operand(e Expr) (code uint32, idx int, isLit, ok bool) {
	if x, lit := e.(Lit); lit {
		return dict.Code(x.Val), 0, true, true
	}
	idx, ok = vc.col(e)
	return 0, idx, false, ok
}

// constKernel keeps everything or nothing: the kernel of a conjunct
// decided at compile time, and of OR's then branch.
func constKernel(keep bool) vecKernel {
	if keep {
		return keepAll
	}
	return keepNone
}

func keepAll(_ *vecState, _ [][]uint32, sel []uint32) ([]uint32, error)  { return sel, nil }
func keepNone(_ *vecState, _ [][]uint32, sel []uint32) ([]uint32, error) { return sel[:0], nil }

func (vc *vecCompiler) comp(e Expr) (vecKernel, error) {
	nullEq := vc.c.ev.NullEq
	switch x := e.(type) {
	case Lit:
		return constKernel(triOf(x.Val) == triTrue), nil
	case Unary:
		if r, ok := negateVec(x.X); ok {
			return vc.comp(r)
		}
		return vc.fallback(e)
	case Ternary:
		cond, err := vc.comp(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := vc.comp(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := vc.comp(x.Else)
		if err != nil {
			return nil, err
		}
		return vc.branch(cond, then, els), nil
	case Case:
		return vc.comp(caseChain(x))
	case Binary:
		switch x.Op {
		case "AND":
			l, err := vc.comp(x.L)
			if err != nil {
				return nil, err
			}
			r, err := vc.comp(x.R)
			if err != nil {
				return nil, err
			}
			return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
				s, err := l(st, cols, sel)
				if err != nil || len(s) == 0 {
					return s, err
				}
				return r(st, cols, s)
			}, nil
		case "OR":
			l, err := vc.comp(x.L)
			if err != nil {
				return nil, err
			}
			r, err := vc.comp(x.R)
			if err != nil {
				return nil, err
			}
			return vc.branch(l, constKernel(true), r), nil
		case "=", "<>":
			lc, li, llit, lok := vc.operand(x.L)
			rc, ri, rlit, rok := vc.operand(x.R)
			if !lok || !rok {
				return vc.fallback(e)
			}
			want := x.Op == "="
			switch {
			case llit && rlit:
				if !nullEq && (lc == rel.NullCode || rc == rel.NullCode) {
					return constKernel(false), nil // unknown is never kept
				}
				return constKernel((lc == rc) == want), nil
			case llit != rlit:
				lit, idx := lc, ri
				if rlit {
					lit, idx = rc, li
				}
				if !nullEq && lit == rel.NullCode {
					return constKernel(false), nil
				}
				if want {
					// col = lit: a matching code is necessarily non-NULL
					// (lit is), so one compare serves both dialects.
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						col := cols[idx]
						k := 0
						for _, ri := range sel {
							if col[ri] == lit {
								sel[k] = ri
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				if nullEq {
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						col := cols[idx]
						k := 0
						for _, ri := range sel {
							if col[ri] != lit {
								sel[k] = ri
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				// Strict <>: NULL <> lit is unknown, dropped.
				return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
					col := cols[idx]
					k := 0
					for _, ri := range sel {
						if c := col[ri]; c != lit && c != rel.NullCode {
							sel[k] = ri
							k++
						}
					}
					return sel[:k], nil
				}, nil
			default: // column vs column
				if nullEq {
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						a, b := cols[li], cols[ri]
						k := 0
						for _, rx := range sel {
							if (a[rx] == b[rx]) == want {
								sel[k] = rx
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				if want {
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						a, b := cols[li], cols[ri]
						k := 0
						for _, rx := range sel {
							if ca := a[rx]; ca == b[rx] && ca != rel.NullCode {
								sel[k] = rx
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
					a, b := cols[li], cols[ri]
					k := 0
					for _, rx := range sel {
						ca, cb := a[rx], b[rx]
						if ca != cb && ca != rel.NullCode && cb != rel.NullCode {
							sel[k] = rx
							k++
						}
					}
					return sel[:k], nil
				}, nil
			}
		default:
			return vc.fallback(e)
		}
	case InList:
		return vc.inList(x)
	case IsNull:
		idx, ok := vc.col(x.X)
		if !ok {
			return vc.fallback(e)
		}
		neg := x.Negate
		// NULL is code 0 in both dialects; IS NULL never yields unknown.
		return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			col := cols[idx]
			k := 0
			for _, ri := range sel {
				if (col[ri] == rel.NullCode) != neg {
					sel[k] = ri
					k++
				}
			}
			return sel[:k], nil
		}, nil
	default:
		return vc.fallback(e)
	}
}

// branch compiles the ternary cond ? then : els over kernels: the rows
// cond keeps go to then, the rest (unknown included) to els, and the two
// sorted, disjoint survivor lists merge back into sel. When cond keeps
// every row or none, the whole selection goes down one branch unsplit,
// so a condition that is constant over the batch descends only the
// branch it takes.
func (vc *vecCompiler) branch(cond, then, els vecKernel) vecKernel {
	slotC, slotR := vc.bufSlots, vc.bufSlots+1
	vc.bufSlots += 2
	return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		if len(sel) == 0 {
			return sel, nil
		}
		b := st.buf(slotC, len(sel))
		copy(b, sel)
		kept, err := cond(st, cols, b)
		if err != nil {
			return nil, err
		}
		switch len(kept) {
		case len(sel):
			return then(st, cols, sel)
		case 0:
			return els(st, cols, sel)
		}
		// Rest = sel minus kept: both sorted, kept ⊆ sel.
		rest := st.buf(slotR, len(sel)-len(kept))
		k, ki := 0, 0
		for _, ri := range sel {
			if ki < len(kept) && kept[ki] == ri {
				ki++
				continue
			}
			rest[k] = ri
			k++
		}
		selT, err := then(st, cols, kept)
		if err != nil {
			return nil, err
		}
		selE, err := els(st, cols, rest[:k])
		if err != nil {
			return nil, err
		}
		i, j, w := 0, 0, 0
		for i < len(selT) && j < len(selE) {
			if selT[i] < selE[j] {
				sel[w] = selT[i]
				i++
			} else {
				sel[w] = selE[j]
				j++
			}
			w++
		}
		w += copy(sel[w:], selT[i:])
		w += copy(sel[w:], selE[j:])
		return sel[:w], nil
	}
}

// caseChain lowers a searched CASE to the ternary chain with the same
// truth: WHEN c THEN v becomes c ? v : (the arms after it), ending in the
// ELSE, or NULL when there is none.
func caseChain(x Case) Expr {
	var e Expr = Lit{Val: rel.Null()}
	if x.Else != nil {
		e = x.Else
	}
	for i := len(x.Whens) - 1; i >= 0; i-- {
		e = Ternary{Cond: x.Whens[i].Cond, Then: x.Whens[i].Val, Else: e}
	}
	return e
}

// inList compiles IN over an all-literal set and a column operand to a
// membership loop: small sets scan a dedup'd code array, larger ones
// probe a hash set — both per morsel element, no Value boxing.
func (vc *vecCompiler) inList(x InList) (vecKernel, error) {
	idx, ok := vc.col(x.X)
	if !ok {
		return vc.fallback(x)
	}
	for _, s := range x.Set {
		if _, lit := s.(Lit); !lit {
			return vc.fallback(x)
		}
	}
	nullEq := vc.c.ev.NullEq
	neg := x.Negate

	var codes []uint32
	hasNull := false
	for _, s := range x.Set {
		v := s.(Lit).Val
		if v.IsNull() {
			hasNull = true
			if !nullEq {
				continue // NULL elements never match in 3VL; they only taint
			}
		}
		c := dict.Code(v)
		dup := false
		for _, have := range codes {
			if have == c {
				dup = true
				break
			}
		}
		if !dup {
			codes = append(codes, c)
		}
	}
	if !nullEq && len(x.Set) == 0 {
		// Strict x IN () is false (NOT IN () true) for every x, NULL
		// included: the empty-set case precedes the NULL-operand case.
		return constKernel(neg), nil
	}
	var member func(c uint32) bool
	if len(codes) <= 8 {
		set := codes
		member = func(c uint32) bool {
			for _, s := range set {
				if s == c {
					return true
				}
			}
			return false
		}
	} else {
		set := make(map[uint32]struct{}, len(codes))
		for _, c := range codes {
			set[c] = struct{}{}
		}
		member = func(c uint32) bool {
			_, ok := set[c]
			return ok
		}
	}
	if nullEq {
		// Constraint dialect: NULL is an ordinary value, membership
		// decides outright.
		return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			col := cols[idx]
			k := 0
			for _, ri := range sel {
				if member(col[ri]) != neg {
					sel[k] = ri
					k++
				}
			}
			return sel[:k], nil
		}, nil
	}
	// Strict ANSI: NULL operand is unknown (dropped); a NULL element
	// taints every non-match to unknown (dropped even under NOT IN).
	return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col := cols[idx]
		k := 0
		for _, ri := range sel {
			c := col[ri]
			if c == rel.NullCode {
				continue
			}
			in := member(c)
			if (in && !neg) || (!in && !hasNull && neg) {
				sel[k] = ri
				k++
			}
		}
		return sel[:k], nil
	}, nil
}

// negateVec rewrites NOT e through identities exact in Kleene 3VL, so
// negation reuses the positive kernels instead of needing complement
// sets: NOT flips true/false and keeps unknown, which is precisely what
// operator flips, De Morgan and pushing NOT into a ternary's branches do
// (the condition still picks the branch). Ordered comparisons are NOT
// safe to flip (NOT (a < b) and a >= b disagree on NULL under the
// constraint dialect) and are left to the fallback.
func negateVec(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case Unary: // NOT NOT e
		return x.X, true
	case Binary:
		switch x.Op {
		case "=":
			return Binary{Op: "<>", L: x.L, R: x.R}, true
		case "<>":
			return Binary{Op: "=", L: x.L, R: x.R}, true
		case "AND":
			return Binary{Op: "OR", L: Unary{Op: "NOT", X: x.L}, R: Unary{Op: "NOT", X: x.R}}, true
		case "OR":
			return Binary{Op: "AND", L: Unary{Op: "NOT", X: x.L}, R: Unary{Op: "NOT", X: x.R}}, true
		}
	case InList:
		x.Negate = !x.Negate
		return x, true
	case IsNull:
		x.Negate = !x.Negate
		return x, true
	case Ternary:
		return Ternary{Cond: x.Cond, Then: Unary{Op: "NOT", X: x.Then}, Else: Unary{Op: "NOT", X: x.Else}}, true
	case Case:
		return negateVec(caseChain(x))
	}
	return nil, false
}

// fallback vectorizes any other conjunct through its compiled closure.
// Over one column the closure runs behind a per-code verdict memo, so each
// distinct dictionary code in the column is evaluated once per state
// lifetime and the morsel loop is a table lookup. Over two or more it
// runs once per selected row on a scratch row gathered from the columns
// it reads, with no memo.
func (vc *vecCompiler) fallback(e Expr) (vecKernel, error) {
	fn, err := vc.c.bool(e)
	if err != nil {
		return nil, err
	}
	// Distinct positions; compilation resolved every reference.
	var pos []int
	walk(e, func(ref Expr) bool {
		if p, ok := vc.col(ref); ok && !slices.Contains(pos, p) {
			pos = append(pos, p)
		}
		return true
	})
	if len(pos) == 0 {
		// No column references: one evaluation decides the whole morsel.
		return func(_ *vecState, _ [][]uint32, sel []uint32) ([]uint32, error) {
			t, err := fn(nil)
			if err != nil {
				return nil, err
			}
			if t == triTrue {
				return sel, nil
			}
			return sel[:0], nil
		}, nil
	}
	width := slices.Max(pos) + 1
	vc.crowLen = max(vc.crowLen, width)
	if len(pos) > 1 {
		return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			crow := st.crow[:width]
			k := 0
			for _, ri := range sel {
				for _, p := range pos {
					crow[p] = cols[p][ri]
				}
				t, err := fn(crow)
				if err != nil {
					return nil, err
				}
				if t == triTrue {
					sel[k] = ri
					k++
				}
			}
			return sel[:k], nil
		}, nil
	}
	idx := pos[0]
	slot := vc.memoSlots
	vc.memoSlots++
	return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col := cols[idx]
		m := st.memos[slot]
		crow := st.crow[:width]
		k := 0
		for _, ri := range sel {
			c := col[ri]
			var v uint8
			if int(c) < len(m) {
				v = m[c]
			}
			if v == 0 {
				crow[idx] = c
				t, err := fn(crow)
				if err != nil {
					return nil, err
				}
				v = 2
				if t == triTrue {
					v = 1
				}
				if c < memoCap {
					if int(c) >= len(m) {
						m = st.growMemo(slot, c)
					}
					m[c] = v
				}
			}
			if v == 1 {
				sel[k] = ri
				k++
			}
		}
		return sel[:k], nil
	}, nil
}
