package constraint

import (
	"fmt"

	"coherdb/internal/sqlmini"
)

// Rule-chain families. A protocol spec constrains every output column with
// a chain over the same rules in the same order (protocol.RuleSet.chain):
//
//	when1 ? col = v1 : when2 ? col = v2 : ... : col = NULL
//
// so a row's first matching rule is the same for all of them. The solver
// reads each constraint as a chain: its leading right-nested ternary arms
// whose conditions do not read the constraint's fire column, those arms'
// then branches, and the else (the rest of the chain). Constraints whose
// leading condition sequences are structurally equal form a family. The
// family compiles its conditions once into a Selector, a selection-vector
// predicate per condition; a solve picks each row's arm once per family,
// the rows of a step in one kernel pass per condition, and every member
// then evaluates only that arm's branch, as a selection-vector predicate,
// over the swept domain.

// family is a set of constraints sharing one leading condition sequence.
type family struct {
	conds   []sqlmini.Expr    // the shared conditions, in priority order
	sel     *sqlmini.Selector // first definitely-true condition, or len(conds)
	cols    []int             // positions the conditions read, ascending: the memo key
	highest int               // the highest of cols, -1 when there are none
	fire    int               // the step the first member fires at
	// memo is set, while the spec compiles, when members fire at more than
	// one step. Only then can a selection serve a later step, so only then
	// does a solve keep a memo: interning every group's projection costs
	// more than it saves when nothing looks it up (EXPERIMENTS § G2).
	memo bool
}

// chainScan is the compile-time reader of a spec's constraints as chains,
// with scratch reused from one constraint to the next.
type chainScan struct {
	spec     *Spec
	ev       *sqlmini.Evaluator
	tails    []sqlmini.Ternary // tails[i]: the chain from arm i on
	condMax  []int             // per condition: highest position read, -1 for none, or unread
	read     []bool            // positions the current constraint reads
	cur      int               // highest position the current walk has read
	families []*family
}

func newChainScan(s *Spec) *chainScan {
	return &chainScan{spec: s, ev: s.evaluator(), read: make([]bool, len(s.cols))}
}

// visit records a column reference of the current walk.
func (w *chainScan) visit(name string) {
	p := w.spec.colIdx[name]
	w.read[p] = true
	w.cur = max(w.cur, p)
}

// mark records every column e reads and returns the highest position, or
// -1 when e reads none.
func (w *chainScan) mark(e sqlmini.Expr) int {
	w.cur = -1
	sqlmini.VisitColumns(e, w.visit)
	return w.cur
}

// compile lowers the constraint e on col. A chain joins the family whose
// conditions equal its stable run (one structural comparison per
// condition), taking the family's columns instead of walking them again;
// any other chain's conditions are walked once each, and a non-empty
// stable run starts a new family.
func (w *chainScan) compile(col string, e sqlmini.Expr) (compiledConstraint, error) {
	s := w.spec
	own := s.colIdx[col]
	clear(w.read)
	w.read[own] = true
	w.tails = w.tails[:0]
	rest := e
	for {
		t, ok := rest.(sqlmini.Ternary)
		if !ok {
			break
		}
		w.tails = append(w.tails, t)
		rest = t.Else
	}
	n := len(w.tails)
	// Every branch is read whatever the split: the then branches and the
	// final else.
	fire := max(own, w.mark(rest))
	for _, t := range w.tails {
		fire = max(fire, w.mark(t.Then))
	}

	w.condMax = w.condMax[:0]
	for range w.tails {
		w.condMax = append(w.condMax, unread)
	}
	cc := compiledConstraint{col: col}
	k := 0
	for _, f := range w.families {
		fk := len(f.conds)
		if fk > n || !w.sameConds(f.conds) {
			continue
		}
		ffire := max(fire, f.highest)
		for i := fk; i < n; i++ {
			ffire = max(ffire, w.condAt(i))
		}
		if f.highest < ffire && (fk == n || w.condAt(fk) == ffire) {
			cc.fam, k, fire = f, fk, ffire
			f.memo = f.memo || fire != f.fire
			for _, p := range f.cols {
				w.read[p] = true
			}
			break
		}
	}
	if cc.fam == nil {
		for i := range w.tails {
			fire = max(fire, w.condAt(i))
		}
		// The conditions before the first one that reads the fire column
		// are sweep-stable: they decide a row's arm once for its sweep.
		for k < n && w.condMax[k] < fire {
			k++
		}
	}
	cc.fire = fire
	for p, r := range w.read {
		if r {
			cc.refs = append(cc.refs, p)
		}
	}

	var err error
	switch {
	case k == 0:
		var vp *sqlmini.VecPred
		vp, err = w.ev.CompileVec(e, s.colIdx)
		cc.sweep = []*sqlmini.VecPred{vp}
	case cc.fam == nil:
		cc.fam, err = w.newFamily(k, fire)
		if err == nil {
			cc.sweep, cc.branch, err = w.branches(k, rest)
		}
	default:
		cc.sweep, cc.branch, err = w.branches(k, rest)
	}
	if err != nil {
		return cc, compileError(s, col, err)
	}
	return cc, nil
}

// compileError wraps a failure to compile the constraint on col.
func compileError(s *Spec, col string, err error) error {
	return fmt.Errorf("constraint: compiling constraint for %s.%s: %w", s.Name, col, err)
}

// unread marks a condition whose columns condAt has not walked yet.
const unread = -2

// condAt returns the highest position the scanned chain's condition i
// reads, walking it on first use.
func (w *chainScan) condAt(i int) int {
	if w.condMax[i] == unread {
		w.condMax[i] = w.mark(w.tails[i].Cond)
	}
	return w.condMax[i]
}

// sameConds reports whether conds are structurally equal to the scanned
// chain's leading conditions.
func (w *chainScan) sameConds(conds []sqlmini.Expr) bool {
	for i, c := range conds {
		if !sqlmini.EqualExpr(c, w.tails[i].Cond) {
			return false
		}
	}
	return true
}

// newFamily starts a family from the scanned chain's first k conditions,
// compiling its Selector; the chain fires at fire.
func (w *chainScan) newFamily(k, fire int) (*family, error) {
	f := &family{conds: make([]sqlmini.Expr, k), highest: -1, fire: fire}
	inFam := make([]bool, len(w.spec.cols))
	for i := range f.conds {
		f.conds[i] = w.tails[i].Cond
		sqlmini.VisitColumns(f.conds[i], func(name string) { inFam[w.spec.colIdx[name]] = true })
	}
	for p, r := range inFam {
		if r {
			f.cols = append(f.cols, p)
			f.highest = p
		}
	}
	var err error
	f.sel, err = w.ev.CompileSelector(f.conds, w.spec.colIdx)
	if err != nil {
		return nil, err
	}
	w.families = append(w.families, f)
	return f, nil
}

// branches compiles the scanned chain's distinct then branches of its
// first k arms and its else into selection-vector predicates, one per
// distinct branch, and maps each arm (k for the else) to its branch. The
// else is the final one, rest, when every arm is stable, and otherwise the
// chain from arm k on.
func (w *chainScan) branches(k int, rest sqlmini.Expr) ([]*sqlmini.VecPred, []int32, error) {
	var es []sqlmini.Expr
	branch := make([]int32, k+1)
	add := func(e sqlmini.Expr) int32 {
		for j, b := range es {
			if sqlmini.EqualExpr(b, e) {
				return int32(j)
			}
		}
		es = append(es, e)
		return int32(len(es) - 1)
	}
	for i := 0; i < k; i++ {
		branch[i] = add(w.tails[i].Then)
	}
	if k < len(w.tails) {
		rest = w.tails[k]
	}
	branch[k] = add(rest)
	preds := make([]*sqlmini.VecPred, len(es))
	for i, e := range es {
		var err error
		if preds[i], err = w.ev.CompileVec(e, w.spec.colIdx); err != nil {
			return nil, nil, err
		}
	}
	return preds, branch, nil
}

// armMemo is one solve's record of a family's selections: the distinct
// projections of rows onto the family's condition columns seen so far,
// and the arm the selector chose for each. Conditions are pure (as
// IncrementalSolver assumes too), so a projection's arm never changes
// within a solve and every later step looks it up.
type armMemo struct {
	keys *codeKeys // over the family's cols
	arms []int32   // per key: the arm, or -1-i for errs[i]
	errs []error
}

// groupArms is the arm of every group of one step for one family: the
// arm, or -1-i for errs[i].
type groupArms struct {
	arm  []int32
	errs []error
}

// selectArms returns the arm of each group's representative row for
// family f, selecting the projections the memo has not seen in one batch.
// It runs before the step's parallel sweep, which only reads the result.
// It reports the number of selections evaluated.
func (m *armMemo) selectArms(f *family, cols [][]uint32, reps []uint32) (groupArms, uint64) {
	out := make([]int32, len(reps)) // key ids, then arms
	seen := len(m.arms)
	var batch []uint32 // the rows of keys new at this step, ascending
	for g, rep := range reps {
		id := m.keys.intern(cols, int(rep))
		if int(id) == seen+len(batch) {
			batch = append(batch, rep)
		}
		out[g] = id
	}
	if len(batch) > 0 {
		m.arms = append(m.arms, f.selectRows(cols, batch, &m.errs)...)
	}
	for g, id := range out {
		out[g] = m.arms[id]
	}
	return groupArms{arm: out, errs: m.errs}, uint64(len(batch))
}

// selectGroups is selectArms without a memo, for a family whose members
// all fire at one step: it selects every group once. That is once per
// distinct projection onto the family's columns unless the step's groups
// also split on columns the family does not read.
func (f *family) selectGroups(cols [][]uint32, reps []uint32) (groupArms, uint64) {
	var errs []error
	return groupArms{arm: f.selectRows(cols, reps, &errs), errs: errs}, uint64(len(reps))
}

// selectRows returns the arm of each row of sel, or -1-i after appending
// the error that ended the row's selection to errs as (*errs)[i]. The
// error is kept, not returned: a member raises it only if it is evaluated
// on that group, as the whole chain would.
func (f *family) selectRows(cols [][]uint32, sel []uint32, errs *[]error) []int32 {
	arms, rowErrs := f.sel.Select(cols, sel)
	for k, err := range rowErrs {
		if err != nil {
			arms[k] = int32(-1 - len(*errs))
			*errs = append(*errs, err)
		}
	}
	return arms
}
