package sqlmini

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"coherdb/internal/rel"
)

// The query planner: every SELECT branch is compiled into a branchPlan —
// per-source index-equality keys, pushed-down filters and the residual
// post-join predicate — once, and the plan is cached on the DB keyed by
// the statement text plus the catalog's schema fingerprint. Plans depend
// only on the catalog's schemas (which tables exist and their column
// lists), never on row contents, so DML leaves them valid: data freshness
// is the job of the persistent table indexes (rel.Table.IndexOn), which
// are carried forward at epoch-publish time. Any schema change (CREATE,
// DROP, PutTable/DropTable with a new shape — even a DROP + CREATE that
// reproduces the identical shape) lands on a new fingerprint, so a cached
// plan can never be served across a DDL boundary.

// planCacheCap bounds the number of cached statements; past it, new
// statements are parsed per execution but not retained.
const planCacheCap = 4096

// srcPlan describes how one table source of a SELECT branch is scanned.
type srcPlan struct {
	// eqCols/eqVals are the pushed-down equality conjuncts of the form
	// column = literal (non-NULL): the scan is answered by a persistent
	// hash index on eqCols probed with eqVals. NULL literals are excluded
	// so the plan is valid under both NULL dialects.
	eqCols []string
	eqVals []rel.Value
	// filters are the remaining pushed conjuncts, bound to this source's
	// columns, and vecs their selection-vector kernels (same index), which
	// evaluate a whole morsel's column vectors per call over the
	// (index-reduced) scan of this source.
	filters []Expr
	vecs    []*VecPred
}

// pristine reports whether the source is scanned whole, with no pushed
// predicates — the precondition for probing its persistent index during a
// join, whose row numbers are then the frame's vector positions.
func (sp srcPlan) pristine() bool { return len(sp.eqCols) == 0 && len(sp.filters) == 0 }

// branchPlan is the cached physical plan of one SELECT branch: how each
// source is scanned, how each JOIN matches, the post-join filter and the
// output, with every expression bound to row positions and compiled.
type branchPlan struct {
	srcs  []srcPlan
	joins []joinPlan // one per JOIN clause, in order
	// residue is the post-join filter's conjuncts, bound to the joined
	// row layout, and resVecs their selection-vector kernels; both empty
	// when the whole WHERE was pushed.
	residue []Expr
	resVecs []*VecPred
	out     outPlan
	// order, on the first branch of a UNION chain, computes the chain's
	// ORDER BY keys over its output row.
	order []outExpr
}

// joinPlan is how one JOIN clause matches, decided when the branch plans;
// the executor and EXPLAIN both read it. A conjunction of cross-side
// column equalities (pairs) is an equi-join, probed by the left rows in
// order: through the right source's persistent index on cols when index
// is set — the source is a pristine scan and no column repeats, so
// IndexOn accepts them — and otherwise through a hash table over the
// right frame's key codes. Any other ON is a nested loop: on, compiled
// over the joined row, runs one kernel batch per left row, and left lists
// the left positions it reads.
type joinPlan struct {
	pairs []joinPair
	index bool
	cols  []string
	on    *VecPred
	left  []int
}

// strategy renders how the join matches, for EXPLAIN and EXPLAIN ANALYZE:
// alias names the right source, and on is the clause as written.
func (jp *joinPlan) strategy(alias string, on Expr) string {
	switch {
	case jp.index:
		return fmt.Sprintf("index nested-loop via %s(%s)", alias, strings.Join(jp.cols, ","))
	case jp.pairs != nil:
		return fmt.Sprintf("hash, %d key(s), build=right", len(jp.pairs))
	}
	return "nested-loop: " + on.String()
}

// outPlan is a branch's compiled output: its column names and, per output
// row, the expressions producing it.
type outPlan struct {
	cols  []string
	items []outExpr
	// grouped is set when the branch aggregates: it has GROUP BY or
	// HAVING, or an aggregate anywhere in its select list. keys then
	// bucket the frame's rows, aggs are computed once per group, and
	// items and having read the group frame: each group's first row
	// extended by one column per aggregate (a group without rows reads
	// NULLs).
	grouped bool
	keys    []outExpr
	aggs    []aggSlot
	having  *VecPred
	// firsts lists the input columns HAVING and the select list read,
	// the only ones the group frame fills; the others stay nil.
	firsts []int
	// order computes the ORDER BY keys: over the output row of a grouped
	// branch, otherwise over the frame row extended by the output row, so
	// a key may name a source column or an output alias.
	order []outExpr
}

// outExpr produces one value per row: a direct read of column at, or,
// when at is negative, the compiled value val, which reads the positions
// reads lists.
type outExpr struct {
	at    int
	val   *vecValue
	reads []int
}

// aggSlot is one aggregate of a grouped branch: COUNT(*) when arg is nil,
// otherwise MIN (or MAX) of arg over the group's rows, skipping NULLs.
type aggSlot struct {
	arg *outExpr
	max bool
}

// eval computes the aggregate of each of ng groups, where gid[k] is the
// group of f's k-th row; rows are visited in order.
func (a aggSlot) eval(f *frame, gid []int32, ng int) ([]rel.Value, error) {
	out := make([]rel.Value, ng)
	if a.arg == nil {
		counts := make([]int64, ng)
		for _, g := range gid {
			counts[g]++
		}
		for g, c := range counts {
			out[g] = rel.I(c)
		}
		return out, nil
	}
	for g := range out {
		out[g] = rel.Null()
	}
	src, err := f.column(*a.arg)
	if err != nil {
		return nil, err
	}
	for k, g := range gid {
		val := dict.Value(src.at(k))
		if val.IsNull() {
			continue
		}
		if best := out[g]; best.IsNull() || (a.max && val.Compare(best) > 0) || (!a.max && val.Compare(best) < 0) {
			out[g] = val
		}
	}
	return out, nil
}

// planEntry is one plan-cache slot: the parsed statement plus the lazily
// built branch plans, tagged with the schema fingerprint they were
// planned under. Plans are cached per NULL dialect (index 0 strict ANSI,
// 1 the constraint dialect) because compiled predicates specialize
// comparisons on the dialect at compile time; the invariant suite runs
// every query under a strict-dialect pin, and two slots keep both
// variants warm instead of rebuilding ~50 plans per dialect switch.
type planEntry struct {
	stmt Stmt

	mu       sync.Mutex
	fp       [2]uint64
	branches [2][]*branchPlan
}

// dialect indexes planEntry caches by the evaluator's NULL dialect.
func dialect(nullEq bool) int {
	if nullEq {
		return 1
	}
	return 0
}

// branchPlans returns the entry's cached branch plans for s (the entry's
// SELECT, or the SELECT embedded in its EXPLAIN/CREATE ... AS), rebuilding
// them when the schema fingerprint of the pinned epoch moved. entry.mu
// serializes concurrent readers planning the same statement.
func (e *planEntry) branchPlans(r *run, s *SelectStmt) ([]*branchPlan, error) {
	d := dialect(r.ev.NullEq)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.branches[d] != nil && e.fp[d] == r.fp {
		return e.branches[d], nil
	}
	plans, err := r.buildBranchPlans(s)
	if err != nil {
		return nil, err
	}
	e.branches[d], e.fp[d] = plans, r.fp
	return plans, nil
}

// planKey identifies one plan-cache slot: the trimmed statement text plus
// the schema fingerprint it was looked up under. Folding the fingerprint
// into the key means a DDL boundary — even DROP + CREATE reproducing the
// identical shape — must miss the cache rather than serve a stale plan.
type planKey struct {
	src string
	fp  uint64
}

// planFP returns the fingerprint statements are cached under right now:
// the current catalog's schema fingerprint, mixed with the session's
// overlay shape when the statement runs inside a session that shadows
// shared names.
func (db *DB) planFP(sess *Session) uint64 {
	return sessionFP(db.cat.Load(), sess)
}

// sessionFP mixes a catalog's schema fingerprint with the session overlay
// generation. A session with an empty overlay resolves names exactly like
// the shared catalog and shares its plan entries; once the overlay
// shadows anything, the session id and its DDL generation split the key.
func sessionFP(cat *rel.Catalog, sess *Session) uint64 {
	fp := cat.Fingerprint()
	if sess == nil || len(sess.overlay) == 0 {
		return fp
	}
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(sess.id >> (8 * i))
		buf[8+i] = byte(sess.gen >> (8 * i))
	}
	return fp ^ rel.HashBytes(buf[:])
}

// lookupPlan resolves src through the plan cache under the given schema
// fingerprint, parsing on miss. The second result reports whether the
// entry was served from the cache.
func (db *DB) lookupPlan(src string, fp uint64) (*planEntry, bool, error) {
	key := planKey{src: strings.TrimSpace(src), fp: fp}
	db.planMu.Lock()
	e, ok := db.plans[key]
	db.planMu.Unlock()
	if ok {
		return e, true, nil
	}
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, false, err
	}
	e = &planEntry{stmt: stmt}
	db.planMu.Lock()
	if have, dup := db.plans[key]; dup {
		e = have // lost a parse race; reuse the first entry
	} else if len(db.plans) < planCacheCap {
		db.plans[key] = e
	}
	db.planMu.Unlock()
	return e, false, nil
}

// plansFor returns the branch plans for s from the statement's cache
// entry.
func (r *run) plansFor(s *SelectStmt) ([]*branchPlan, error) {
	return r.entry.branchPlans(r, s)
}

// buildBranchPlans plans every branch of a UNION chain in order, and the
// chain's ORDER BY over its output columns into the first plan's order.
func (r *run) buildBranchPlans(s *SelectStmt) ([]*branchPlan, error) {
	var out []*branchPlan
	for b := firstBranch(s); b != nil; b = b.Union {
		bp, err := r.planBranch(b)
		if err != nil {
			return nil, err
		}
		out = append(out, bp)
	}
	if s.Union != nil {
		var err error
		if out[0].order, err = planOrder(&r.ev, s.OrderBy, nil, out[0].out.cols); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// firstBranch is the first branch of s's UNION chain as a branch: without
// the chain's ORDER BY and LIMIT.
func firstBranch(s *SelectStmt) *SelectStmt {
	if s.Union == nil {
		return s
	}
	b := *s
	b.OrderBy, b.Limit = nil, -1
	return &b
}

// planBranch plans one SELECT branch. WHERE conjuncts that reference a
// single source are pushed to that source's scan, and among those the
// column-equals-literal conjuncts become index keys; everything else is
// the post-join residue. Every expression is then bound to row positions
// and compiled: pushed filters to selection-vector kernels over their
// source, the residue and each nested-loop ON to kernels over the joined
// row, and the select list, grouping and ORDER BY to the output plan. A
// column or function that does not resolve fails the plan, whatever rows
// the tables hold.
func (r *run) planBranch(s *SelectStmt) (*branchPlan, error) {
	sources, err := r.selectSources(s)
	if err != nil {
		return nil, err
	}
	plan := &branchPlan{srcs: make([]srcPlan, len(sources)), joins: make([]joinPlan, len(s.Joins))}
	var residue []Expr
	if s.Where != nil {
		for _, c := range splitAnd(s.Where) {
			target := pushTarget(c, sources)
			if target < 0 {
				residue = append(residue, c)
				continue
			}
			sp := &plan.srcs[target]
			if col, val, ok := indexableEq(c, sources[target]); ok && !hasCol(sp.eqCols, col) {
				sp.eqCols = append(sp.eqCols, col)
				sp.eqVals = append(sp.eqVals, val)
				continue
			}
			sp.filters = append(sp.filters, c)
		}
	}
	for i := range plan.srcs {
		sp := &plan.srcs[i]
		for j, e := range sp.filters {
			sp.filters[j] = bindExpr(e, sources[i])
		}
		if sp.vecs, err = compileVecs(&r.ev, sp.filters); err != nil {
			return nil, err
		}
	}
	for j, jc := range s.Joins {
		k := len(s.From) + j
		jp := &plan.joins[j]
		left := joinedScope(sources[:k])
		if pairs, ok := hashJoinPairs(left, sources[k], jc.On); ok {
			jp.pairs = pairs
			jp.index = plan.srcs[k].pristine()
			for _, p := range pairs {
				c := sources[k].names[p.ri]
				jp.index = jp.index && !slices.Contains(jp.cols, c)
				jp.cols = append(jp.cols, c)
			}
			continue
		}
		on := bindExpr(jc.On, joinedScope(sources[:k+1]))
		if jp.on, err = r.ev.CompileBoundVec(on); err != nil {
			return nil, err
		}
		for _, p := range reads(on) {
			if p < len(left.names) {
				jp.left = append(jp.left, p)
			}
		}
	}
	joined := joinedScope(sources)
	for _, c := range residue {
		plan.residue = append(plan.residue, bindExpr(c, joined))
	}
	if plan.resVecs, err = compileVecs(&r.ev, plan.residue); err != nil {
		return nil, err
	}
	if plan.out, err = planOutput(&r.ev, s, joined); err != nil {
		return nil, err
	}
	return plan, nil
}

// planOutput binds and compiles a branch's output over the row layout f:
// the select list, and for a grouped branch its keys, aggregates and
// HAVING, then the ORDER BY keys.
func planOutput(ev *Evaluator, s *SelectStmt, f *scope) (outPlan, error) {
	cols, exprs := projection(s.Items, f)
	if len(s.GroupBy) == 0 && len(s.Items) == 1 && s.Items[0].Alias == "" {
		if c, ok := s.Items[0].Expr.(Call); ok && c.Name == "count_star" {
			cols[0] = "count" // a lone COUNT(*) over the whole input
		}
	}
	op := outPlan{cols: cols, grouped: len(s.GroupBy) > 0 || s.Having != nil}
	for _, e := range exprs {
		op.grouped = op.grouped || hasAgg(e)
	}
	bind := func(e Expr) (Expr, error) { return bindExpr(e, f), nil }
	if op.grouped {
		for _, g := range s.GroupBy {
			k, err := compileOut(ev, bindExpr(g, f))
			if err != nil {
				return outPlan{}, err
			}
			op.keys = append(op.keys, k)
		}
		// Each distinct aggregate binds to a column of the group frame
		// after the input's columns; its argument reads the input.
		slots := map[string]int{}
		width := len(f.names)
		bind = func(e Expr) (Expr, error) {
			var err error
			b, _ := rewrite(e, func(n Expr) (Expr, bool) {
				if !isAgg(n) || err != nil {
					return bindCol(n, f)
				}
				key := n.String()
				i, ok := slots[key]
				if !ok {
					var a aggSlot
					if a, err = planAgg(ev, n.(Call), f); err != nil {
						return nil, false
					}
					i = len(op.aggs)
					slots[key] = i
					op.aggs = append(op.aggs, a)
				}
				return boundCol{Col: Col{Name: key}, Idx: width + i}, true
			})
			return b, err
		}
		if s.Having != nil {
			h, err := bind(s.Having)
			if err != nil {
				return outPlan{}, err
			}
			if op.having, err = ev.CompileBoundVec(h); err != nil {
				return outPlan{}, err
			}
			op.firsts = reads(h)
		}
	}
	for _, e := range exprs {
		b, err := bind(e)
		if err != nil {
			return outPlan{}, err
		}
		it, err := compileOut(ev, b)
		if err != nil {
			return outPlan{}, err
		}
		op.items = append(op.items, it)
		if op.grouped {
			op.firsts = append(append(op.firsts, it.at), it.reads...)
		}
	}
	if op.grouped {
		kept := op.firsts[:0]
		for _, p := range op.firsts {
			if p >= 0 && p < len(f.names) && !slices.Contains(kept, p) {
				kept = append(kept, p)
			}
		}
		op.firsts = kept
	}
	// ORDER BY resolves a name among the source columns first (never in a
	// grouped branch), then among the output columns.
	if op.grouped {
		f = nil
	}
	var err error
	op.order, err = planOrder(ev, s.OrderBy, f, cols)
	return op, err
}

// planOrder compiles ORDER BY keys over a row holding the columns of
// layout f, when it is set, followed by the output columns cols. A name
// resolves among f's columns first.
func planOrder(ev *Evaluator, keys []OrderKey, f *scope, cols []string) ([]outExpr, error) {
	base := 0
	if f != nil {
		base = len(f.names)
	}
	var order []outExpr
	for _, k := range keys {
		b, _ := rewrite(k.Expr, func(n Expr) (Expr, bool) {
			if f != nil {
				if b, ok := bindCol(n, f); ok {
					return b, true
				}
			}
			if c, ok := n.(Col); ok && c.Qualifier == "" {
				for i, name := range cols {
					if name == c.Name {
						return boundCol{Col: c, Idx: base + i}, true
					}
				}
			}
			return nil, false
		})
		o, err := compileOut(ev, b)
		if err != nil {
			return nil, err
		}
		order = append(order, o)
	}
	return order, nil
}

// planAgg compiles one aggregate call's argument over the layout f.
func planAgg(ev *Evaluator, call Call, f *scope) (aggSlot, error) {
	if call.Name == "count_star" {
		return aggSlot{}, nil
	}
	if len(call.Args) != 1 {
		return aggSlot{}, fmt.Errorf("%w: %s wants 1 argument", ErrType, call.Name)
	}
	arg, err := compileOut(ev, bindExpr(call.Args[0], f))
	return aggSlot{arg: &arg, max: call.Name == "agg_max"}, err
}

// compileOut compiles a bound output expression: a bare column reference
// reads its position directly, anything else compiles to a value.
func compileOut(ev *Evaluator, e Expr) (outExpr, error) {
	if b, ok := e.(boundCol); ok {
		return outExpr{at: b.Idx}, nil
	}
	val, err := ev.compileValue(e)
	return outExpr{at: -1, val: val, reads: reads(e)}, err
}

// reads lists the distinct row positions a bound expression reads.
func reads(e Expr) []int {
	var pos []int
	walk(e, func(n Expr) bool {
		if b, ok := n.(boundCol); ok && !slices.Contains(pos, b.Idx) {
			pos = append(pos, b.Idx)
		}
		return true
	})
	return pos
}

// projection expands the select list into output column names and the
// expressions producing them.
func projection(items []SelectItem, f *scope) ([]string, []Expr) {
	var cols []string
	var exprs []Expr
	for _, it := range items {
		if it.Star {
			for i := range f.names {
				name := f.names[i]
				if f.resolve("", name) < 0 {
					// Ambiguous across tables; qualify.
					name = f.aliases[i] + "." + f.names[i]
				}
				cols = append(cols, name)
				exprs = append(exprs, Col{Qualifier: f.aliases[i], Name: f.names[i]})
			}
			continue
		}
		name := it.Alias
		if name == "" {
			if c, ok := it.Expr.(Col); ok {
				name = c.Name
			} else {
				name = it.Expr.String()
			}
		}
		cols = append(cols, name)
		exprs = append(exprs, it.Expr)
	}
	// Disambiguate duplicate output names (SELECT a.m, b.m ...).
	seen := make(map[string]int, len(cols))
	for i, c := range cols {
		n := seen[c]
		seen[c] = n + 1
		if n > 0 {
			cols[i] = fmt.Sprintf("%s_%d", c, n)
		}
	}
	return cols, exprs
}

// boundCol is a column reference resolved to a row position at plan time.
// Only the planner produces it — never the parser — so it appears only
// inside cached plans, whose frame layout is pinned by the schema epoch.
// The embedded Col keeps the original spelling for rendering (EXPLAIN
// output is unchanged).
type boundCol struct {
	Col
	Idx int
}

// joinedScope concatenates the sources' layouts in execution order —
// exactly the column layout cross and join produce — so the post-join
// residue can be bound to positions.
func joinedScope(sources []*scope) *scope {
	out := &scope{}
	for _, s := range sources {
		out.aliases = append(out.aliases, s.aliases...)
		out.names = append(out.names, s.names...)
	}
	return out
}

// bindCol binds n to its position in the row layout f when n is a column
// reference that resolves there.
func bindCol(n Expr, f *scope) (Expr, bool) {
	if c, ok := n.(Col); ok {
		if i := f.resolve(c.Qualifier, c.Name); i >= 0 {
			return boundCol{Col: c, Idx: i}, true
		}
	}
	return nil, false
}

// bindExpr rewrites e with every resolvable column reference replaced by
// its position in the row layout f. References that do not resolve
// (unknown or ambiguous) keep their Col node, which then fails compilation
// with ErrUnknownColumn. The tree is never mutated: parsed statements are
// shared across executions and epochs.
func bindExpr(e Expr, f *scope) Expr {
	b, _ := rewrite(e, func(n Expr) (Expr, bool) { return bindCol(n, f) })
	return b
}

// pushTarget finds the single source a conjunct's column references all
// resolve in, or -1 when the conjunct has no column references, spans
// sources, or references something ambiguous/unresolvable.
func pushTarget(c Expr, sources []*scope) int {
	target := -1
	pushable := walk(c, func(n Expr) bool {
		col, ok := colOf(n)
		if !ok {
			return true
		}
		si := -1
		for i, src := range sources {
			if src.resolve(col.Qualifier, col.Name) >= 0 {
				if si >= 0 {
					return false // resolvable in two sources: not pushable
				}
				si = i
			}
		}
		if si < 0 || (target >= 0 && si != target) {
			return false
		}
		target = si
		return true
	})
	if !pushable {
		return -1
	}
	return target
}

// indexableEq recognizes a pushed conjunct of the form column = literal
// (either order) with a non-NULL literal, returning the base column name
// and the key value. NULL literals are rejected: under strict ANSI NULLs
// the conjunct can never hold, and excluding them keeps one plan valid in
// both dialects.
func indexableEq(c Expr, src *scope) (string, rel.Value, bool) {
	b, ok := c.(Binary)
	if !ok || b.Op != "=" {
		return "", rel.Value{}, false
	}
	col, okc := b.L.(Col)
	lit, okl := b.R.(Lit)
	if !okc || !okl {
		col, okc = b.R.(Col)
		lit, okl = b.L.(Lit)
	}
	if !okc || !okl || lit.Val.IsNull() {
		return "", rel.Value{}, false
	}
	if src.resolve(col.Qualifier, col.Name) < 0 {
		return "", rel.Value{}, false
	}
	return col.Name, lit.Val, true
}

func hasCol(cols []string, c string) bool {
	for _, have := range cols {
		if have == c {
			return true
		}
	}
	return false
}

// Prepared is a parsed-and-planned statement bound to a DB (or to one of
// its sessions) — the prepared-statement layer the invariant suite uses
// so re-checking a revision never re-parses its ~50 queries.
type Prepared struct {
	db    *DB
	sess  *Session
	src   string
	entry *planEntry
}

// Prepare parses src (through the plan cache) and returns a handle whose
// executions skip parsing and reuse the cached plan.
func (db *DB) Prepare(src string) (*Prepared, error) {
	entry, _, err := db.lookupPlan(src, db.planFP(nil))
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, src: strings.TrimSpace(src), entry: entry}, nil
}

// ExecStatsDialect executes the prepared statement with its NULL dialect
// pinned (true = strict ANSI) for just this execution, regardless of the
// DB default, and also returns the execution's QueryStats — rows
// scanned/produced, join strategies, morsel and steal counts — so callers
// like the invariant suite can attribute runtime per query. The suite runs
// its ~50 queries this way so concurrent sessions never observe each
// other's dialect, as they would through the DB-wide SetStrictNulls.
func (p *Prepared) ExecStatsDialect(strict bool) (*Result, QueryStats, error) {
	var qs QueryStats
	res, err := p.db.execute(p.entry.stmt, execOpts{entry: p.entry, src: p.src, planCache: "hit", into: &qs, sess: p.sess, strict: &strict})
	return res, qs, err
}

// exprCache backs ParseExprCached: constraint expressions — hand-written
// column constraints and the protocol rules' conditions, from which the
// rule compiler assembles its ternary chains as trees — are a fixed
// vocabulary re-parsed on every generation, and parsed Exprs are immutable
// value trees, so sharing them is safe.
var (
	exprCacheMu sync.Mutex
	exprCache   = map[string]Expr{}
)

// maxCachedExprLen bounds which expression texts are retained. Every
// constraint and rule condition the protocols use is well under it (the
// directory's rule conditions are at most 66 bytes); longer texts are
// one-off inputs whose trees are not worth holding for the process
// lifetime.
const maxCachedExprLen = 256

// ParseExprCached is ParseExpr behind a process-wide bounded cache, for
// callers (the constraint solver) that parse the same expression texts on
// every run. The returned tree is shared: treat it as read-only.
func ParseExprCached(src string) (Expr, error) {
	cacheable := len(src) <= maxCachedExprLen
	if cacheable {
		exprCacheMu.Lock()
		e, ok := exprCache[src]
		exprCacheMu.Unlock()
		if ok {
			return e, nil
		}
	}
	e, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	if cacheable {
		exprCacheMu.Lock()
		if len(exprCache) < planCacheCap {
			exprCache[src] = e
		}
		exprCacheMu.Unlock()
	}
	return e, nil
}
