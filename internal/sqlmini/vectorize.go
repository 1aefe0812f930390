package sqlmini

import (
	"fmt"
	"slices"
	"sync"

	"coherdb/internal/rel"
)

// The expression compiler: every expression sqlmini evaluates lowers once,
// when its statement plans or its spec compiles, onto kernels over a batch
// of dictionary-code column vectors, and a single row is a batch of one. A
// predicate (VecPred) is every SELECT filter, residue, nested-loop ON and
// HAVING, every UPDATE/DELETE WHERE conjunct, every constraint the solver
// sweeps or MonolithicOpts tests, and every condition of a Selector; a
// value (vecValue) is every computed select item, GROUP BY key, MIN/MAX
// argument and ORDER BY key, INSERT value and UPDATE SET.
//
// A predicate kernel filters a selection vector — the strictly increasing
// row indices still alive — in place:
//
//   - =, <>, IN over literals and IS NULL compare codes in tight loops
//     (codes are injective, so equality never decodes; NULL is code 0 in
//     both dialects);
//   - AND cascades over the shrinking selection, which is also its
//     short-circuit; the ternary c ? a : b runs c on a copy, sends the
//     rows it keeps to a and the rest (unknown included) to b, and merges
//     the two sorted survivor lists, or sends the whole selection down one
//     branch when c keeps every row or none. OR is the ternary whose then
//     branch keeps every row, CASE a ternary chain, BETWEEN the AND of two
//     ordered comparisons, and IN over a set that is not all literals the
//     OR of its equalities;
//   - NOT rewrites through Kleene-valid identities (De Morgan, operator
//     flips, NOT (c ? a : b) as c ? NOT a : NOT b). An ordered comparison
//     (<, <=, >, >=), which decodes both operands per row through
//     compareVals, and a value taken as a truth (a bare column or call),
//     which keeps the rows whose decoded value is true, keep under NOT the
//     rows on which they are definitely false. Negation never needs a
//     complement set.
//
// A value kernel writes its expression's code at each selected row of a
// row-indexed column: a literal fills its code, a column copies its codes,
// a call decodes its argument codes per row, calls the Func and interns
// the result, a ternary or CASE splits the rows with its condition's
// kernel and fills each side from its branch, and a condition is TRUE on
// the rows its kernel keeps, FALSE on those its negation keeps, and NULL
// elsewhere. An operand that is neither a column nor a literal is such a
// derived column, which the predicate kernels read like an input column.
//
// A decoding predicate (an ordered comparison, a value taken as a truth,
// or a comparison over a derived column) that reads exactly one input
// column runs behind a per-code verdict memo: each distinct code is
// decided once per state by the predicate's own kernels over a one-lane
// batch holding the code, which on low-cardinality protocol columns is
// almost as tight as a native kernel. One that reads no column is decided
// on the one-lane batch once per call.
//
// Column references resolve at compile time to the positions the planner
// bound (CompileBoundVec, the values) or through a name index
// (CompileVec, which the solver uses: its batch is one group's candidate
// rows, the swept column's domain beside the group's other codes repeated
// across the lanes). An unknown function, or a column the planner could
// not bind, fails the compilation and so its statement when it plans.
//
// Selection semantics are WHERE semantics: a row survives iff the
// predicate is definitely true, so kernels drop unknown outright, which
// makes the NOT rewrites exact. Evaluation is operator-major over a batch,
// not row-major, and AND's right side never sees a row its left side left
// unknown, so when rows would error, which error surfaces (if any) can
// differ from a row-at-a-time walk — in a Selector, too, although it
// retries a failing condition row by row so each row keeps its own error.
// Kernels only error on registered Funcs, which this codebase keeps pure
// and total; the frozen scan-filter digests and the kernel-versus-
// interpreter tests pin the results.
//
// A compiled expression is immutable and safe for concurrent use: its
// mutable scratch (selection buffers, derived columns, verdict memos, the
// one-lane batch) lives in pooled vecStates, one per evaluation, so the
// steady state allocates nothing (TestVectorizedFilterAllocs). One whose
// kernels keep no scratch evaluates without a vecState and never touches
// its pool, so a one-shot compile (a DML WHERE, an INSERT value) costs no
// state.

// dict is the shared dictionary every rel.Table encodes into; kernels
// intern their literals through it at compile time and compare codes at
// evaluation time.
var dict = rel.SharedDict()

// memoCap bounds the per-code verdict memo of decoding predicates. Codes
// beyond it (a dictionary past 64k distinct values) are decided on the
// one-lane batch each time instead of growing the memo without bound.
const memoCap = 1 << 16

// vecKernel filters sel in place against the column vectors, returning
// the surviving prefix. sel is strictly increasing; kernels preserve
// that (they only compact forward).
type vecKernel func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error)

// valKernel writes its expression's code at every row of sel into the
// row-indexed column out. sel is left as it is.
type valKernel func(st *vecState, cols [][]uint32, sel, out []uint32) error

// vecState is one evaluation's mutable scratch: buffers for selections
// and derived columns, verdict memos and the one-lane batch. States are
// pooled per compiled expression; memos persist across calls, which is
// sound because dictionary codes are append-only and a kernel's literals,
// dialect and functions are fixed at compile time (re-registering a
// function rebuilds the plan, or the spec's compiled constraints).
type vecState struct {
	bufs  [][]uint32
	memos [][]uint8
	// lane is the one-lane batch a memo miss is decided on: every column
	// position is the same one-entry vector.
	lane [][]uint32
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

// column returns buffer slot as a row-indexed column with room for every
// row of sel.
func (st *vecState) column(slot int, sel []uint32) []uint32 {
	if len(sel) == 0 {
		return nil
	}
	return st.buf(slot, int(sel[len(sel)-1])+1)
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

// states sizes and pools the vecStates of one compiled expression.
type states struct {
	bufs, memos, lanes int
	pool               sync.Pool // *vecState
}

// get checks a state out of the pool, or returns nil when the kernels
// keep no scratch.
func (s *states) get() *vecState {
	if s.bufs == 0 && s.memos == 0 {
		return nil
	}
	if st, ok := s.pool.Get().(*vecState); ok {
		return st
	}
	st := &vecState{bufs: make([][]uint32, s.bufs), memos: make([][]uint8, s.memos), lane: make([][]uint32, s.lanes)}
	code := make([]uint32, 1)
	for i := range st.lane {
		st.lane[i] = code
	}
	return st
}

func (s *states) put(st *vecState) {
	if st != nil {
		s.pool.Put(st)
	}
}

// VecPred is a compiled predicate.
type VecPred struct {
	kern vecKernel
	cols []int // positions of the column vectors the kernels read
	states
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
	st := p.get()
	out, err := p.kern(st, cols, sel)
	p.put(st)
	return out, err
}

// CompileBoundVec lowers a plan-bound predicate — one whose column
// references bindExpr already replaced with boundCol positions. A bare Col
// left in the tree is one the planner could not resolve (unknown, or
// ambiguous across sources) and fails with ErrUnknownColumn; an unknown
// function fails with ErrUnknownFunc. The NULL dialect and function
// registry are captured at compile time, so compiled plans are cached per
// dialect (see planEntry) and invalidated when a function is registered.
func (ev *Evaluator) CompileBoundVec(e Expr) (*VecPred, error) {
	return compileVec(vecCompiler{ev: ev, bound: true}, e)
}

// CompileVec lowers e into a predicate over column vectors laid out by
// colIndex, which maps each referenced column name to its vector's
// position; the constraint solver decides a column's whole domain per
// call this way. Unknown columns and functions fail the compilation.
func (ev *Evaluator) CompileVec(e Expr, colIndex map[string]int) (*VecPred, error) {
	return compileVec(vecCompiler{ev: ev, ix: colIndex}, e)
}

// compileVec is CompileBoundVec and CompileVec; vc decides how column
// references resolve.
func compileVec(vc vecCompiler, e Expr) (*VecPred, error) {
	k, err := vc.comp(e)
	if err != nil {
		return nil, err
	}
	p := &VecPred{kern: k, cols: vc.cols}
	vc.size(&p.states)
	return p, nil
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

// vecValue is a compiled value expression.
type vecValue struct {
	kern valKernel
	states
}

// compileValue lowers a plan-bound value expression; it fails where
// CompileBoundVec fails.
func (ev *Evaluator) compileValue(e Expr) (*vecValue, error) {
	vc := vecCompiler{ev: ev, bound: true}
	k, err := vc.value(e)
	if err != nil {
		return nil, err
	}
	v := &vecValue{kern: k}
	vc.size(&v.states)
	return v, nil
}

// eval writes the value's code at row sel[k] of the column vectors into
// dst[k]; len(dst) == len(sel). It is safe for concurrent use.
func (v *vecValue) eval(cols [][]uint32, sel, dst []uint32) error {
	if len(sel) == 0 {
		return nil
	}
	out := dst
	n := int(sel[len(sel)-1]) + 1
	if n > len(sel) {
		// Not the identity: the kernels write at row positions.
		sv := getSel(n)
		defer selPool.Put(sv)
		out = sv.s[:n]
	}
	st := v.get()
	err := v.kern(st, cols, sel, out)
	v.put(st)
	if err != nil || n == len(sel) {
		return err
	}
	for k, ri := range sel {
		dst[k] = out[ri]
	}
	return nil
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

// vecCompiler carries compile-time state: how column references resolve
// — through the positions the planner bound, or the name index ix — the
// positions resolved through ix so far, and the slot counts of the
// vecStates the kernels will use.
type vecCompiler struct {
	ev                 *Evaluator
	ix                 map[string]int
	bound              bool
	cols               []int
	bufs, memos, lanes int
}

// size records the compiled kernels' slot counts in s.
func (vc *vecCompiler) size(s *states) {
	s.bufs, s.memos, s.lanes = vc.bufs, vc.memos, vc.lanes
}

// col resolves a column reference to its vector position, recording it
// when names resolve through the index. ok is false, with a nil error,
// when e is not a column reference at all.
func (vc *vecCompiler) col(e Expr) (idx int, ok bool, err error) {
	switch x := e.(type) {
	case Col:
		i, found := vc.ix[x.Name]
		if vc.bound || !found {
			// Bound, a bare Col is one the planner could not resolve.
			return 0, false, fmt.Errorf("%w: %s", ErrUnknownColumn, x.String())
		}
		idx = i
	case boundCol:
		if vc.bound {
			return x.Idx, true, nil
		}
		// Positions bound against a table while planning are stale here;
		// rebind by name.
		i, found := vc.ix[x.Name]
		if !found {
			return 0, false, fmt.Errorf("%w: %s", ErrUnknownColumn, x.Col.String())
		}
		idx = i
	default:
		return 0, false, nil
	}
	if !slices.Contains(vc.cols, idx) {
		vc.cols = append(vc.cols, idx)
	}
	return idx, true, nil
}

// operand is what a kernel reads: a literal's code, or a code vector —
// an input column, or a derived column its value kernel fills.
type operand struct {
	lit  bool
	code uint32    // a literal's code
	pos  int       // an input column's position, or a derived column's buffer
	fill valKernel // nil unless derived
}

// vec returns the operand's code vector, filling a derived one on sel,
// or nil for a literal.
func (o operand) vec(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
	switch {
	case o.lit:
		return nil, nil
	case o.fill == nil:
		return cols[o.pos], nil
	}
	d := st.column(o.pos, sel)
	return d, o.fill(st, cols, sel, d)
}

func (vc *vecCompiler) operand(e Expr) (operand, error) {
	if x, ok := e.(Lit); ok {
		return operand{lit: true, code: dict.Code(x.Val)}, nil
	}
	if idx, ok, err := vc.col(e); ok || err != nil {
		return operand{pos: idx}, err
	}
	fill, err := vc.value(e)
	if err != nil {
		return operand{}, err
	}
	vc.bufs++
	return operand{pos: vc.bufs - 1, fill: fill}, nil
}

// constKernel keeps everything or nothing: the kernel of a predicate
// decided at compile time, and of OR's then branch.
func constKernel(keep bool) vecKernel {
	if keep {
		return keepAll
	}
	return keepNone
}

func keepAll(_ *vecState, _ [][]uint32, sel []uint32) ([]uint32, error)  { return sel, nil }
func keepNone(_ *vecState, _ [][]uint32, sel []uint32) ([]uint32, error) { return sel[:0], nil }

// fixed is the kernel of a verdict decided at compile time over operand
// o: a derived o is still computed, so a failing call still fails.
func fixed(o operand, keep bool) vecKernel {
	k := constKernel(keep)
	if o.fill == nil {
		return k
	}
	return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		if _, err := o.vec(st, cols, sel); err != nil {
			return nil, err
		}
		return k(st, cols, sel)
	}
}

// comp compiles e as a predicate.
func (vc *vecCompiler) comp(e Expr) (vecKernel, error) {
	switch x := e.(type) {
	case Unary:
		if r, ok := negateVec(x.X); ok {
			return vc.comp(r)
		}
		return vc.truth(x.X, triFalse)
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
	case Between:
		return vc.comp(betweenAnd(x))
	case InList:
		return vc.inList(x)
	case IsNull:
		return vc.isNull(x)
	case Binary:
		switch x.Op {
		case "=", "<>":
			return vc.equal(x)
		case "AND", "OR":
			l, err := vc.comp(x.L)
			if err != nil {
				return nil, err
			}
			r, err := vc.comp(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "OR" {
				return vc.branch(l, keepAll, r), nil
			}
			return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
				s, err := l(st, cols, sel)
				if err != nil || len(s) == 0 {
					return s, err
				}
				return r(st, cols, s)
			}, nil
		}
	}
	return vc.truth(e, triTrue)
}

// equal compiles = and <> over codes.
func (vc *vecCompiler) equal(x Binary) (vecKernel, error) {
	l, err := vc.operand(x.L)
	if err != nil {
		return nil, err
	}
	r, err := vc.operand(x.R)
	if err != nil {
		return nil, err
	}
	nullEq, want := vc.ev.NullEq, x.Op == "="
	var k vecKernel
	switch {
	case l.lit && r.lit:
		if !nullEq && (l.code == rel.NullCode || r.code == rel.NullCode) {
			return constKernel(false), nil // unknown is never kept
		}
		return constKernel((l.code == r.code) == want), nil
	case l.lit || r.lit:
		lit, src := l.code, r
		if r.lit {
			lit, src = r.code, l
		}
		switch {
		case !nullEq && lit == rel.NullCode:
			k = fixed(src, false)
		case want:
			// col = lit: a matching code is necessarily non-NULL (lit
			// is), so one compare serves both dialects.
			k = func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
				col, err := src.vec(st, cols, sel)
				if err != nil {
					return nil, err
				}
				n := 0
				for _, ri := range sel {
					if col[ri] == lit {
						sel[n] = ri
						n++
					}
				}
				return sel[:n], nil
			}
		default:
			// col <> lit; under strict NULLs NULL <> lit is unknown, dropped.
			k = func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
				col, err := src.vec(st, cols, sel)
				if err != nil {
					return nil, err
				}
				n := 0
				for _, ri := range sel {
					if c := col[ri]; c != lit && (nullEq || c != rel.NullCode) {
						sel[n] = ri
						n++
					}
				}
				return sel[:n], nil
			}
		}
	default: // vector against vector
		k = func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			a, err := l.vec(st, cols, sel)
			if err != nil {
				return nil, err
			}
			b, err := r.vec(st, cols, sel)
			if err != nil {
				return nil, err
			}
			n := 0
			for _, ri := range sel {
				ca, cb := a[ri], b[ri]
				if (ca == cb) == want && (nullEq || (ca != rel.NullCode && cb != rel.NullCode)) {
					sel[n] = ri
					n++
				}
			}
			return sel[:n], nil
		}
	}
	if l.fill == nil && r.fill == nil {
		return k, nil
	}
	return vc.memo(x, k), nil
}

// isNull compiles IS [NOT] NULL: NULL is code 0 in both dialects, and the
// test never yields unknown.
func (vc *vecCompiler) isNull(x IsNull) (vecKernel, error) {
	src, err := vc.operand(x.X)
	if err != nil {
		return nil, err
	}
	neg := x.Negate
	if src.lit {
		return constKernel((src.code == rel.NullCode) != neg), nil
	}
	k := func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col, err := src.vec(st, cols, sel)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, ri := range sel {
			if (col[ri] == rel.NullCode) != neg {
				sel[n] = ri
				n++
			}
		}
		return sel[:n], nil
	}
	if src.fill == nil {
		return k, nil
	}
	return vc.memo(x, k), nil
}

// inList compiles IN over an all-literal set to a membership loop over
// codes, with no Value boxing. Any other set is the OR of its equalities.
func (vc *vecCompiler) inList(x InList) (vecKernel, error) {
	for _, s := range x.Set {
		if _, lit := s.(Lit); !lit {
			return vc.comp(inOr(x))
		}
	}
	src, err := vc.operand(x.X)
	if err != nil {
		return nil, err
	}
	in := &inSet{nullEq: vc.ev.NullEq, neg: x.Negate, empty: len(x.Set) == 0}
	for _, s := range x.Set {
		v := s.(Lit).Val
		if v.IsNull() {
			in.hasNull = true
			if !in.nullEq {
				continue // NULL elements never match in 3VL; they only taint
			}
		}
		if c := dict.Code(v); !slices.Contains(in.codes, c) {
			in.codes = append(in.codes, c)
		}
	}
	if len(in.codes) > 8 {
		in.set = make(map[uint32]struct{}, len(in.codes))
		for _, c := range in.codes {
			in.set[c] = struct{}{}
		}
	}
	switch {
	case src.lit:
		return constKernel(in.keep(src.code)), nil
	case !in.nullEq && in.empty:
		return vc.memo(x, fixed(src, in.neg)), nil
	}
	k := func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col, err := src.vec(st, cols, sel)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, ri := range sel {
			if in.keep(col[ri]) {
				sel[n] = ri
				n++
			}
		}
		return sel[:n], nil
	}
	if src.fill == nil {
		return k, nil
	}
	return vc.memo(x, k), nil
}

// inSet is an IN list of literals: small sets scan the dedup'd codes,
// larger ones probe a hash set.
type inSet struct {
	codes                       []uint32
	set                         map[uint32]struct{} // nil for up to 8 codes
	nullEq, neg, empty, hasNull bool
}

// keep is the verdict on one code. Constraint dialect: NULL is an
// ordinary value, membership decides outright. Strict ANSI: x IN () is
// false (NOT IN () true) for every x, NULL included; otherwise a NULL
// operand is unknown, and a NULL element taints every non-match to
// unknown (dropped even under NOT IN).
func (s *inSet) keep(c uint32) bool {
	var in bool
	if s.set != nil {
		_, in = s.set[c]
	} else {
		in = slices.Contains(s.codes, c)
	}
	switch {
	case s.nullEq:
		return in != s.neg
	case s.empty:
		return s.neg
	case c == rel.NullCode:
		return false
	case in:
		return !s.neg
	}
	return !s.hasNull && s.neg
}

// truth compiles the predicates no identity negates — a literal, an
// ordered comparison, or a value taken as a truth (a bare column or call)
// — keeping the rows on which e is want: triTrue, or triFalse under NOT.
func (vc *vecCompiler) truth(e Expr, want tri) (vecKernel, error) {
	switch x := e.(type) {
	case Lit:
		return constKernel(triOf(x.Val) == want), nil
	case Binary:
		return vc.ordered(x, want)
	case Col, boundCol, Call:
	default:
		return nil, fmt.Errorf("sqlmini: cannot compile %T", e)
	}
	src, err := vc.operand(e)
	if err != nil {
		return nil, err
	}
	return vc.memo(e, func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col, err := src.vec(st, cols, sel)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, ri := range sel {
			if triOf(dict.Value(col[ri])) == want {
				sel[n] = ri
				n++
			}
		}
		return sel[:n], nil
	}), nil
}

// ordered compiles <, <=, > and >=, decoding both operands per row.
func (vc *vecCompiler) ordered(x Binary, want tri) (vecKernel, error) {
	switch x.Op {
	case "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("sqlmini: cannot compile operator %q", x.Op)
	}
	l, err := vc.operand(x.L)
	if err != nil {
		return nil, err
	}
	r, err := vc.operand(x.R)
	if err != nil {
		return nil, err
	}
	op, nullEq := x.Op, vc.ev.NullEq
	lv, rv := dict.Value(l.code), dict.Value(r.code) // the literals' values
	if l.lit && r.lit {
		return constKernel(compareVals(op, lv, rv, nullEq) == want), nil
	}
	return vc.memo(x, func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		a, err := l.vec(st, cols, sel)
		if err != nil {
			return nil, err
		}
		b, err := r.vec(st, cols, sel)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, ri := range sel {
			av, bv := lv, rv
			if !l.lit {
				av = dict.Value(a[ri])
			}
			if !r.lit {
				bv = dict.Value(b[ri])
			}
			if compareVals(op, av, bv, nullEq) == want {
				sel[n] = ri
				n++
			}
		}
		return sel[:n], nil
	}), nil
}

// memo wraps the kernel k of a decoding predicate e. When e reads exactly
// one input column, each distinct code of it is decided once per state,
// by k over the one-lane batch that holds the code, and the loop reuses
// the verdict; when it reads none, the one lane decides the whole batch,
// once per call. Over two or more columns k runs as it is.
func (vc *vecCompiler) memo(e Expr, k vecKernel) vecKernel {
	var pos []int
	walk(e, func(n Expr) bool {
		if p, ok, _ := vc.col(n); ok && !slices.Contains(pos, p) {
			pos = append(pos, p)
		}
		return true
	})
	if len(pos) > 1 {
		return k
	}
	one := vc.bufs // the one-lane selection
	vc.bufs++
	decide := func(st *vecState) (bool, error) {
		sel := st.buf(one, 1)
		sel[0] = 0
		kept, err := k(st, st.lane, sel)
		return len(kept) == 1, err
	}
	if len(pos) == 0 {
		return func(st *vecState, _ [][]uint32, sel []uint32) ([]uint32, error) {
			keep, err := decide(st)
			if err != nil {
				return nil, err
			}
			return constKernel(keep)(st, nil, sel)
		}
	}
	idx, slot := pos[0], vc.memos
	vc.memos++
	vc.lanes = max(vc.lanes, idx+1)
	return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col, m := cols[idx], st.memos[slot]
		n := 0
		for _, ri := range sel {
			c := col[ri]
			var v uint8
			if int(c) < len(m) {
				v = m[c]
			}
			if v == 0 {
				st.lane[idx][0] = c
				keep, err := decide(st)
				if err != nil {
					return nil, err
				}
				v = 2
				if keep {
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
				sel[n] = ri
				n++
			}
		}
		return sel[:n], nil
	}
}

// value compiles e as a value.
func (vc *vecCompiler) value(e Expr) (valKernel, error) {
	switch x := e.(type) {
	case Lit, Col, boundCol:
		// A literal fills its code, and a column copies its codes.
		o, err := vc.operand(e)
		if err != nil {
			return nil, err
		}
		return func(_ *vecState, cols [][]uint32, sel, out []uint32) error {
			for _, ri := range sel {
				if out[ri] = o.code; !o.lit {
					out[ri] = cols[o.pos][ri]
				}
			}
			return nil
		}, nil
	case Call:
		return vc.call(x)
	case Case:
		return vc.value(caseChain(x))
	case Ternary:
		// The chosen branch's value, which need not be boolean; only the
		// condition is three-valued, and unknown takes the else branch.
		cond, err := vc.comp(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := vc.value(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := vc.value(x.Else)
		if err != nil {
			return nil, err
		}
		slotC, slotR := vc.bufs, vc.bufs+1
		vc.bufs += 2
		return func(st *vecState, cols [][]uint32, sel, out []uint32) error {
			kept, rest, err := split(st, cols, sel, cond, slotC, slotR)
			if err != nil {
				return err
			}
			if err := then(st, cols, kept, out); err != nil {
				return err
			}
			return els(st, cols, rest, out)
		}, nil
	}
	// A condition: TRUE where it holds, FALSE where its negation holds,
	// NULL elsewhere.
	pos, err := vc.comp(e)
	if err != nil {
		return nil, err
	}
	neg, err := vc.comp(Unary{Op: "NOT", X: e})
	if err != nil {
		return nil, err
	}
	slotC, slotR := vc.bufs, vc.bufs+1
	vc.bufs += 2
	t, f := dict.Code(rel.B(true)), dict.Code(rel.B(false))
	return func(st *vecState, cols [][]uint32, sel, out []uint32) error {
		kept, rest, err := split(st, cols, sel, pos, slotC, slotR)
		if err != nil {
			return err
		}
		for _, ri := range kept {
			out[ri] = t
		}
		if len(rest) == 0 {
			return nil
		}
		if len(kept) == 0 { // rest is sel, which neg must not narrow
			rest = append(st.buf(slotR, len(sel))[:0], sel...)
		}
		for _, ri := range rest {
			out[ri] = rel.NullCode
		}
		if rest, err = neg(st, cols, rest); err != nil {
			return err
		}
		for _, ri := range rest {
			out[ri] = f
		}
		return nil
	}, nil
}

// call compiles a registered function's call: per row it decodes the
// argument codes, calls the Func and interns the result.
func (vc *vecCompiler) call(x Call) (valKernel, error) {
	fn, ok := vc.ev.Funcs[x.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFunc, x.Name)
	}
	args := make([]operand, len(x.Args))
	for i, a := range x.Args {
		var err error
		if args[i], err = vc.operand(a); err != nil {
			return nil, err
		}
	}
	return func(st *vecState, cols [][]uint32, sel, out []uint32) error {
		if len(sel) == 0 {
			return nil
		}
		vecs := make([][]uint32, len(args))
		for i, a := range args {
			var err error
			if vecs[i], err = a.vec(st, cols, sel); err != nil {
				return err
			}
		}
		vals := make([]rel.Value, len(args))
		for _, ri := range sel {
			for i, a := range args {
				c := a.code
				if !a.lit {
					c = vecs[i][ri]
				}
				vals[i] = dict.Value(c)
			}
			v, err := fn(vals)
			if err != nil {
				return err
			}
			out[ri] = dict.Code(v)
		}
		return nil
	}, nil
}

// split runs cond on a copy of sel and returns the rows it keeps and the
// rest, unknown included, in the buffers slotC and slotR; sel is left as
// it is.
func split(st *vecState, cols [][]uint32, sel []uint32, cond vecKernel, slotC, slotR int) (kept, rest []uint32, err error) {
	if len(sel) == 0 {
		return sel, sel, nil
	}
	b := st.buf(slotC, len(sel))
	copy(b, sel)
	if kept, err = cond(st, cols, b); err != nil {
		return nil, nil, err
	}
	switch len(kept) {
	case len(sel):
		return sel, sel[:0], nil
	case 0:
		return kept, sel, nil
	}
	// Rest = sel minus kept: both sorted, kept ⊆ sel.
	rest = st.buf(slotR, len(sel)-len(kept))[:0]
	ki := 0
	for _, ri := range sel {
		if ki < len(kept) && kept[ki] == ri {
			ki++
			continue
		}
		rest = append(rest, ri)
	}
	return kept, rest, nil
}

// branch compiles the ternary cond ? then : els over kernels: the rows
// cond keeps go to then, the rest (unknown included) to els, and the two
// sorted, disjoint survivor lists merge back into sel. When cond keeps
// every row or none, the whole selection goes down one branch unsplit,
// so a condition that is constant over the batch descends only the
// branch it takes.
func (vc *vecCompiler) branch(cond, then, els vecKernel) vecKernel {
	slotC, slotR := vc.bufs, vc.bufs+1
	vc.bufs += 2
	return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		if len(sel) == 0 {
			return sel, nil
		}
		kept, rest, err := split(st, cols, sel, cond, slotC, slotR)
		switch {
		case err != nil:
			return nil, err
		case len(rest) == 0:
			return then(st, cols, sel)
		case len(kept) == 0:
			return els(st, cols, sel)
		}
		selT, err := then(st, cols, kept)
		if err != nil {
			return nil, err
		}
		selE, err := els(st, cols, rest)
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
// value: WHEN c THEN v becomes c ? v : (the arms after it), ending in the
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

// betweenAnd lowers BETWEEN to the AND of two ordered comparisons, which
// has the same truth in Kleene logic.
func betweenAnd(x Between) Expr {
	var e Expr = Binary{Op: "AND", L: Binary{Op: ">=", L: x.X, R: x.Lo}, R: Binary{Op: "<=", L: x.X, R: x.Hi}}
	if x.Negate {
		e = Unary{Op: "NOT", X: e}
	}
	return e
}

// inOr lowers IN to the OR of its equalities, left to right, which has
// the same truth in Kleene logic; the set is not empty.
func inOr(x InList) Expr {
	var e Expr = Binary{Op: "=", L: x.X, R: x.Set[0]}
	for _, s := range x.Set[1:] {
		e = Binary{Op: "OR", L: e, R: Binary{Op: "=", L: x.X, R: s}}
	}
	if x.Negate {
		e = Unary{Op: "NOT", X: e}
	}
	return e
}

// negateVec rewrites NOT e through identities exact in Kleene 3VL, so
// negation reuses the positive kernels instead of needing complement
// sets: NOT flips true/false and keeps unknown, which is precisely what
// operator flips, De Morgan and pushing NOT into a ternary's branches do
// (the condition still picks the branch). Ordered comparisons are NOT
// safe to flip (NOT (a < b) and a >= b disagree on NULL under the
// constraint dialect); truth compiles them, and values taken as a truth,
// to keep their definitely false rows instead.
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
	case Between:
		x.Negate = !x.Negate
		return x, true
	case Ternary:
		return Ternary{Cond: x.Cond, Then: Unary{Op: "NOT", X: x.Then}, Else: Unary{Op: "NOT", X: x.Else}}, true
	case Case:
		return negateVec(caseChain(x))
	}
	return nil, false
}
