package sqlmini

import (
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
	// filters are the remaining pushed conjuncts, evaluated over the
	// (index-reduced) scan of this source.
	filters []Expr
	// vecs holds the vectorized form of each filter conjunct (same index),
	// evaluating a whole morsel's column vectors per call; a nil slot means
	// the conjunct failed to compile. The scan takes the column-at-a-time
	// path only when every conjunct vectorized (see fullyVec) and is
	// interpreted otherwise, so a partially lowered filter never splits
	// evaluation orders.
	vecs []*VecPred
}

// pristine reports whether the source is scanned whole, with no pushed
// predicates — the precondition for probing its persistent index during a
// join.
func (sp srcPlan) pristine() bool { return len(sp.eqCols) == 0 && len(sp.filters) == 0 }

// branchPlan is the cached physical plan of one SELECT branch.
type branchPlan struct {
	srcs    []srcPlan
	residue Expr // post-join filter; nil when fully pushed
	// resConj/resProgs are the residue's conjuncts split once at plan time
	// and their compiled forms (nil slots interpreted), so execution never
	// re-splits or re-lowers the post-join filter.
	resConj  []Expr
	resProgs []CodePred
}

// residueConjuncts returns the post-join filter as conjuncts plus their
// compiled forms; plans built through planBranch carry both precomputed,
// while the defensive fallback plan (planAt) splits on demand.
func (p *branchPlan) residueConjuncts() ([]Expr, []CodePred) {
	if p.resConj != nil {
		return p.resConj, p.resProgs
	}
	if p.residue == nil {
		return nil, nil
	}
	return splitAnd(p.residue), nil
}

// src returns the i-th source plan, or a zero plan when out of range
// (defensive: plans are built from the same statement they execute).
func (p *branchPlan) src(i int) srcPlan {
	if p == nil || i < 0 || i >= len(p.srcs) {
		return srcPlan{}
	}
	return p.srcs[i]
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

// buildBranchPlans plans every branch of a UNION chain in order.
func (r *run) buildBranchPlans(s *SelectStmt) ([]*branchPlan, error) {
	var out []*branchPlan
	for b := s; b != nil; b = b.Union {
		bp, err := r.planBranch(b)
		if err != nil {
			return nil, err
		}
		out = append(out, bp)
	}
	return out, nil
}

// planBranch compiles one SELECT branch: WHERE conjuncts that reference a
// single source are pushed to that source's scan, and among those the
// column-equals-literal conjuncts become index keys; everything else is
// the post-join residue.
func (r *run) planBranch(s *SelectStmt) (*branchPlan, error) {
	sources, err := r.selectSources(s)
	if err != nil {
		return nil, err
	}
	plan := &branchPlan{srcs: make([]srcPlan, len(sources))}
	if s.Where == nil {
		return plan, nil
	}
	for _, c := range splitAnd(s.Where) {
		target := pushTarget(c, sources)
		if target < 0 {
			if plan.residue == nil {
				plan.residue = c
			} else {
				plan.residue = Binary{Op: "AND", L: plan.residue, R: c}
			}
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
	// Bind column references to row positions: pushed filters against their
	// source's schema, the residue against the joined layout. Fully bound
	// conjuncts are additionally lowered: pushed ones to selection-vector
	// kernels, the residue's to compiled predicates.
	for i := range plan.srcs {
		sp := &plan.srcs[i]
		for j, e := range sp.filters {
			sp.filters[j] = bindExpr(e, sources[i])
		}
		sp.vecs = compileVecs(&r.ev, sp.filters)
	}
	if plan.residue != nil {
		plan.residue = bindExpr(plan.residue, joinedSchema(sources))
		plan.resConj = splitAnd(plan.residue)
		plan.resProgs = compilePreds(&r.ev, plan.resConj)
	}
	return plan, nil
}

// compilePreds lowers each bound residue conjunct through
// CompileBoundCodes. A conjunct the compiler declines — an unresolved
// column reference, or an unknown function — keeps a nil slot and is
// interpreted per row, which preserves the unplanned path's error
// reporting exactly.
func compilePreds(ev *Evaluator, conjuncts []Expr) []CodePred {
	if len(conjuncts) == 0 {
		return nil
	}
	out := make([]CodePred, len(conjuncts))
	for i, c := range conjuncts {
		if p, err := ev.CompileBoundCodes(c); err == nil {
			out[i] = p
		}
	}
	return out
}

// boundCol is a column reference resolved to a row position at plan time.
// Only bindExpr produces it — never the parser — so it appears only inside
// cached plans, whose frame layout is pinned by the schema epoch. The
// embedded Col keeps the original spelling for rendering (EXPLAIN output is
// unchanged) and for the name-resolution fallback under non-frame Envs.
type boundCol struct {
	Col
	Idx int
}

// joinedSchema concatenates the sources' schemas in execution order —
// exactly the row layout cross and join produce — so the post-join residue
// can be bound to positions.
func joinedSchema(sources []*frame) *frame {
	out := &frame{}
	for _, s := range sources {
		out.aliases = append(out.aliases, s.aliases...)
		out.names = append(out.names, s.names...)
	}
	return out
}

// bindExpr rewrites e with every resolvable column reference replaced by
// its position in f's row layout, so per-row evaluation indexes the row
// directly instead of resolving names. The tree is copied, never mutated:
// parsed statements are shared across executions and epochs. References
// that do not resolve (unknown or ambiguous) keep their Col node, so
// runtime errors are identical to the unplanned path.
func bindExpr(e Expr, f *frame) Expr {
	switch x := e.(type) {
	case Col:
		if i := f.resolve(x.Qualifier, x.Name); i >= 0 {
			return boundCol{Col: x, Idx: i}
		}
		return x
	case Unary:
		x.X = bindExpr(x.X, f)
		return x
	case Binary:
		x.L = bindExpr(x.L, f)
		x.R = bindExpr(x.R, f)
		return x
	case InList:
		x.X = bindExpr(x.X, f)
		set := make([]Expr, len(x.Set))
		for i, s := range x.Set {
			set[i] = bindExpr(s, f)
		}
		x.Set = set
		return x
	case IsNull:
		x.X = bindExpr(x.X, f)
		return x
	case Between:
		x.X = bindExpr(x.X, f)
		x.Lo = bindExpr(x.Lo, f)
		x.Hi = bindExpr(x.Hi, f)
		return x
	case Ternary:
		x.Cond = bindExpr(x.Cond, f)
		x.Then = bindExpr(x.Then, f)
		x.Else = bindExpr(x.Else, f)
		return x
	case Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: bindExpr(w.Cond, f), Val: bindExpr(w.Val, f)}
		}
		x.Whens = whens
		if x.Else != nil {
			x.Else = bindExpr(x.Else, f)
		}
		return x
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = bindExpr(a, f)
		}
		x.Args = args
		return x
	default:
		return e
	}
}

// pushTarget finds the single source a conjunct's column references all
// resolve in, or -1 when the conjunct has no column references, spans
// sources, or references something ambiguous/unresolvable.
func pushTarget(c Expr, sources []*frame) int {
	var cols []Col
	colRefs(c, &cols)
	if len(cols) == 0 {
		return -1
	}
	target := -1
	for _, col := range cols {
		si := -1
		for i, src := range sources {
			if src.resolve(col.Qualifier, col.Name) >= 0 {
				if si >= 0 {
					return -1 // resolvable in two sources: not pushable
				}
				si = i
			}
		}
		if si < 0 || (target >= 0 && si != target) {
			return -1
		}
		target = si
	}
	return target
}

// indexableEq recognizes a pushed conjunct of the form column = literal
// (either order) with a non-NULL literal, returning the base column name
// and the key value. NULL literals are rejected: under strict ANSI NULLs
// the conjunct can never hold, and excluding them keeps one plan valid in
// both dialects.
func indexableEq(c Expr, src *frame) (string, rel.Value, bool) {
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
