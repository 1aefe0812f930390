package sqlmini

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// DefaultMorselSize is the scan batch grain: parallel phases deal rows to
// workers in contiguous batches of this many rows, and a phase must have
// at least two morsels' worth of input before going parallel at all (the
// controller tables, a few hundred rows each, stay serial by default).
const DefaultMorselSize = 1024

// Errors returned by the executor.
var (
	ErrNoTable    = errors.New("sqlmini: no such table")
	ErrTableExist = errors.New("sqlmini: table already exists")
	ErrSharedDrop = errors.New("sqlmini: cannot DROP a shared table from a session")
)

// DB is a catalog of named tables plus a function registry — the "central
// database" of the paper in which all controller tables live. The catalog
// is MVCC: every statement pins one immutable epoch (rel.Catalog) for its
// whole execution, writers derive copy-on-write working tables off the
// current epoch and publish the successor atomically when the statement
// commits. SELECTs therefore never block on DML and never see torn state;
// DML/DDL statements serialize on a single writer lock and are atomic per
// statement (an errored statement publishes nothing).
//
// Tables obtained from Table() are published snapshots. Mutating one
// directly (the pipeline and solver do, for bulk loads) still works — the
// catalog holds the pointer, not the storage — but requires the caller's
// own exclusion against concurrent readers, exactly as before. SQL DML is
// the concurrency-safe path.
//
// By default the DB evaluates expressions in the paper's constraint dialect
// (NULL is an ordinary dontcare/noop domain value, so col = NULL holds when
// col is NULL). Use SetStrictNulls for ANSI three-valued semantics.
type DB struct {
	// cat is the atomically published current catalog. Readers Load (pin)
	// it wait-free; only writers holding writeMu replace it.
	cat rel.CatalogRef
	// writeMu serializes everything that publishes a new epoch: DML/DDL
	// statements, PutTable/DropTable, Register. Readers never take it.
	writeMu sync.Mutex

	// cfgMu guards the execution configuration below. Statements snapshot
	// the configuration once at start and never touch it again, so Set*
	// calls cannot tear a running statement.
	cfgMu    sync.RWMutex
	eval     Evaluator
	tracer   obs.Tracer
	metrics  *obs.Registry
	queryLog *obs.QueryLog
	// exec is the worker pool behind morsel-parallel scans and join
	// probes (the process-wide shared pool by default); workers caps the
	// participants one statement phase may recruit (0 means the pool
	// size, 1 forces serial execution) and morsel is the batch grain.
	exec    *pool.Pool
	workers int
	morsel  int

	// statsMu guards the aggregate stats separately, so folding a
	// read-only statement's stats does not serialize concurrent readers.
	statsMu sync.Mutex
	stats   DBStats

	// planMu guards the plan cache: parse trees and physical plans keyed
	// by trimmed statement text plus the catalog schema fingerprint the
	// statement was looked up under (see plan.go).
	planMu sync.Mutex
	plans  map[planKey]*planEntry

	// nextSession numbers sessions for obs attribution; see NewSession.
	sessMu      sync.Mutex
	nextSession uint64
}

// execCfg is the per-statement snapshot of the DB's execution
// configuration, taken once under cfgMu at statement start.
type execCfg struct {
	ev       Evaluator
	tracer   obs.Tracer
	metrics  *obs.Registry
	queryLog *obs.QueryLog
	exec     *pool.Pool
	workers  int
	morsel   int
}

func (db *DB) snapshotCfg() execCfg {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return execCfg{
		ev: db.eval, tracer: db.tracer, metrics: db.metrics, queryLog: db.queryLog,
		exec: db.exec, workers: db.workers, morsel: db.morsel,
	}
}

// run is the context of one executing statement: the DB, the pinned
// catalog epoch, the session overlay (nil outside sessions), the writer
// working set (nil for read-only statements), a snapshot of the evaluator,
// the statement's stats sink, the plan-cache entry when the statement came
// in as text, and the parallel-execution knobs.
type run struct {
	db      *DB
	cat     *rel.Catalog
	sess    *Session
	overlay map[string]*rel.Table
	write   *catWrite
	ev      Evaluator
	qs      *QueryStats
	entry   *planEntry
	// fp tags plans with the schema fingerprint of the pinned epoch
	// (mixed with the session overlay generation inside sessions); cached
	// branch plans rebuild when it moves.
	fp uint64

	// az collects per-operator measurements during EXPLAIN ANALYZE; nil
	// for every other statement, so the executor's azBegin/azEnd hooks
	// cost one nil check each on the normal path.
	az *azRun

	// track is set on a positional SELECT asked for its output positions,
	// which execSelectOne leaves in pos, over the table state the scan
	// records in base; seeded scans its table from the rows seed lists,
	// and only at base (see seed.go).
	track, seeded bool
	seed, pos     []uint32
	base          rel.Version

	pool    *pool.Pool
	workers int
	morsel  int
}

// table resolves a name as this statement sees it: the session overlay
// shadows the shared catalog, and a writer statement sees its own working
// copies (so an INSERT's later rows see its earlier ones).
func (r *run) table(name string) (*rel.Table, bool) {
	if r.overlay != nil {
		if t, ok := r.overlay[name]; ok {
			return t, true
		}
	}
	if r.write != nil {
		return r.write.lookup(name)
	}
	return r.cat.Table(name)
}

// writeTable resolves the mutable target of a DML statement: the
// session-local table when the name is shadowed (mutated in place — it is
// private to the session), otherwise a copy-on-write working copy from
// the writer working set. The DML executors evaluate everything before
// they write the first cell, so an errored statement leaves an overlay
// table as untouched as a discarded working copy.
func (r *run) writeTable(name string) (*rel.Table, bool) {
	if r.overlay != nil {
		if t, ok := r.overlay[name]; ok {
			return t, true
		}
	}
	if r.write != nil {
		return r.write.mutable(name)
	}
	return nil, false
}

// parallel decides whether a phase over n rows runs on the pool: it
// returns the pool, the worker cap and the morsel size, or a nil pool
// when the phase should stay serial (input smaller than two morsels, a
// worker cap of one, or no pool). The two-morsel floor guarantees that
// going parallel can actually split the work.
func (r *run) parallel(n int) (*pool.Pool, int, int) {
	morsel := r.morsel
	if morsel < 1 {
		morsel = DefaultMorselSize
	}
	if r.pool == nil || n < 2*morsel {
		return nil, 0, 0
	}
	workers := r.workers
	if workers <= 0 || workers > r.pool.Size() {
		workers = r.pool.Size()
	}
	if workers <= 1 {
		return nil, 0, 0
	}
	return r.pool, workers, morsel
}

// catWrite is one writer statement's working set over its base epoch:
// the first touch of a table derives a copy-on-write snapshot, and a
// successful statement publishes every touched table as the next epoch.
// An errored statement simply discards the working set, which is what
// makes DML/DDL atomic per statement.
type catWrite struct {
	base  *rel.Catalog
	work  map[string]*rel.Table // name -> working copy (or created table)
	orig  map[string]*rel.Table // name -> base version; nil for created
	drops map[string]bool
}

func newCatWrite(base *rel.Catalog) *catWrite { return &catWrite{base: base} }

// lookup resolves a name through the working set: dropped names are gone,
// touched names resolve to their working copies, everything else to the
// base epoch.
func (w *catWrite) lookup(name string) (*rel.Table, bool) {
	if w.drops[name] {
		return nil, false
	}
	if t, ok := w.work[name]; ok {
		return t, true
	}
	return w.base.Table(name)
}

// mutable returns the writable working copy of name, deriving it off the
// base epoch on first touch.
func (w *catWrite) mutable(name string) (*rel.Table, bool) {
	if w.drops[name] {
		return nil, false
	}
	if t, ok := w.work[name]; ok {
		return t, true
	}
	t, ok := w.base.Table(name)
	if !ok {
		return nil, false
	}
	cp := t.Snapshot()
	w.record(name, cp, t)
	return cp, true
}

// create installs a freshly created table into the working set.
func (w *catWrite) create(t *rel.Table) {
	w.record(t.Name(), t, nil)
	delete(w.drops, t.Name())
}

func (w *catWrite) record(name string, work, orig *rel.Table) {
	if w.work == nil {
		w.work = make(map[string]*rel.Table, 2)
		w.orig = make(map[string]*rel.Table, 2)
	}
	w.work[name] = work
	w.orig[name] = orig
}

// drop removes name from the working view, reporting whether it existed.
func (w *catWrite) drop(name string) bool {
	if _, ok := w.lookup(name); !ok {
		return false
	}
	delete(w.work, name)
	delete(w.orig, name)
	if w.drops == nil {
		w.drops = make(map[string]bool, 1)
	}
	w.drops[name] = true
	return true
}

// publish builds the successor epoch off the base and swaps it in. A
// statement that touched nothing — a DELETE matching zero rows — burns no
// epoch. The caller holds the DB's writer lock, so the swap from base
// cannot lose a race with another statement; an out-of-band Store is
// tolerated by re-deriving once off the then-current epoch.
func (w *catWrite) publish(db *DB) {
	changed := len(w.drops) > 0
	if !changed {
		for name, t := range w.work {
			if old := w.orig[name]; old == nil || t.Revision() != old.Revision() {
				changed = true
				break
			}
		}
	}
	if !changed {
		return
	}
	next := w.build(w.base)
	if !db.cat.CompareAndSwap(w.base, next) {
		cur := db.cat.Load()
		db.cat.CompareAndSwap(cur, w.build(cur))
	}
	if m := db.snapshotCfg().metrics; m != nil {
		m.Gauge("coherdb_catalog_epoch").Set(int64(db.cat.Load().Epoch()))
	}
}

func (w *catWrite) build(base *rel.Catalog) *rel.Catalog {
	b := base.Derive()
	for name := range w.drops {
		b.Drop(name)
	}
	for name, t := range w.work {
		if old := w.orig[name]; old != nil {
			// Epoch-publish-time index maintenance: append-only working
			// copies extend the base epoch's indexes incrementally,
			// rewrites keep each index over columns they left unchanged
			// and rebuild the rest, and either way the published table
			// starts warm.
			t.CarryIndexes(old)
		}
		b.Put(t)
		_ = name
	}
	return b.Build()
}

// NewDB creates an empty database with the standard function registry
// (typename, coalesce2) pre-installed.
func NewDB() *DB {
	db := &DB{
		eval:   Evaluator{Funcs: make(map[string]Func), NullEq: true},
		plans:  make(map[planKey]*planEntry),
		exec:   pool.Shared(),
		morsel: DefaultMorselSize,
	}
	db.eval.Funcs["typename"] = func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("%w: typename wants 1 arg", ErrType)
		}
		return rel.S(args[0].Kind().String()), nil
	}
	db.eval.Funcs["coalesce2"] = func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Null(), fmt.Errorf("%w: coalesce2 wants 2 args", ErrType)
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	}
	return db
}

// Epoch returns the version number of the currently published catalog.
// It advances on every committed DML/DDL statement and on PutTable /
// DropTable; two equal Epoch() observations bracket a quiescent catalog.
func (db *DB) Epoch() uint64 { return db.cat.Load().Epoch() }

// Catalog returns the currently published catalog snapshot. The catalog
// and every table in it are immutable; pinning it gives the caller a
// torn-free view for as long as it keeps the pointer.
func (db *DB) Catalog() *rel.Catalog { return db.cat.Load() }

// SetStrictNulls switches between ANSI SQL NULL semantics (true) and the
// paper's constraint dialect (false, the default). Cached plans survive the
// toggle: compiled predicates specialize on the dialect, so each plan-cache
// entry keeps one compiled plan per dialect (see planEntry) and toggling
// just selects the other slot.
func (db *DB) SetStrictNulls(strict bool) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	db.eval.NullEq = !strict
}

// SetWorkers caps how many pool workers one statement phase may recruit:
// 0 restores the default (the pool size, GOMAXPROCS for the shared pool)
// and 1 forces serial execution. Parallel and serial execution produce
// byte-identical results; the knob trades latency for pool pressure.
func (db *DB) SetWorkers(n int) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	if n < 0 {
		n = 0
	}
	db.workers = n
}

// SetMorselSize sets the rows-per-batch grain of parallel phases; 0
// restores DefaultMorselSize. Smaller morsels parallelize smaller inputs
// (a phase needs at least two morsels of rows) at more scheduling
// overhead per row.
func (db *DB) SetMorselSize(n int) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	if n < 1 {
		n = DefaultMorselSize
	}
	db.morsel = n
}

// SetTracer installs (or, with nil, removes) a tracer: every statement
// then emits one "sql.stmt" span carrying its QueryStats — rows scanned
// and produced, join strategies, index and plan-cache use, eval time.
func (db *DB) SetTracer(t obs.Tracer) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	db.tracer = t
}

// SetMetrics installs (or, with nil, removes) a metrics registry: every
// statement then bumps the coherdb_sql_* counters — statements by verb,
// plan-cache hits and misses, index scans and index joins.
func (db *DB) SetMetrics(m *obs.Registry) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	db.metrics = m
	if m != nil {
		m.Help("coherdb_sql_statements_total", "Executed SQL statements by verb.")
		m.Help("coherdb_sql_plan_cache_hits_total", "Statements served from the plan cache without re-parsing.")
		m.Help("coherdb_sql_plan_cache_misses_total", "Statements parsed and planned fresh.")
		m.Help("coherdb_sql_index_scans_total", "Table scans answered from a persistent hash index.")
		m.Help("coherdb_sql_index_joins_total", "Joins that probed a persistent index instead of building a hash table.")
		m.Help("coherdb_sql_parallel_morsels_total", "Row batches dealt to the worker pool by parallel scans and join probes.")
		m.Help("coherdb_sql_parallel_steals_total", "Morsels claimed by a worker beyond its fair share (work-stealing rebalances).")
		m.Help("coherdb_sql_vectorized_batches_total", "Selection-vector batches evaluated by the column-at-a-time scan path.")
		m.Help("coherdb_sql_vectorized_rows_total", "Rows entering vectorized filter kernels (selection-vector inputs).")
		m.Help("coherdb_catalog_epoch", "Version number of the published catalog epoch.")
		m.Gauge("coherdb_catalog_epoch").Set(int64(db.cat.Load().Epoch()))
	}
}

// SetQueryLog installs (or, with nil, removes) a query log: every
// statement then registers as in-flight with its statement text, updates
// its phase and rows-so-far while executing, and lands in the slow-query
// ring when it exceeds the log's threshold or fails.
func (db *DB) SetQueryLog(q *obs.QueryLog) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	db.queryLog = q
}

// Stats returns a snapshot of the aggregate statement statistics.
func (db *DB) Stats() DBStats {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.stats
}

// Register installs fn as a SQL-callable scalar function. The paper
// registers protocol predicates such as isrequest(msg). The function map
// is copied on write (running statements snapshot it), and registering
// publishes an epoch with a bumped schema generation: compiled plans
// resolve functions at compile time, so a (re)bound name invalidates them
// exactly like a schema change.
func (db *DB) Register(name string, fn Func) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.cfgMu.Lock()
	funcs := make(map[string]Func, len(db.eval.Funcs)+1)
	for n, f := range db.eval.Funcs {
		funcs[n] = f
	}
	funcs[name] = fn
	db.eval.Funcs = funcs
	db.cfgMu.Unlock()
	cur := db.cat.Load()
	b := cur.Derive()
	b.BumpSchema()
	db.cat.CompareAndSwap(cur, b.Build())
}

// PutTable installs (or replaces) a table under its own name, publishing
// a new epoch. The caller's pointer is installed directly (not snapshot),
// preserving the bulk-load workflow where the pipeline keeps mutating the
// table it registered; such direct mutation needs the caller's own
// exclusion against readers. Cached plans are invalidated only when the
// name is new or the column list changed; replacing a table with an
// identically-shaped revision (the pipeline does this on every protocol
// revision) keeps every plan.
func (db *DB) PutTable(t *rel.Table) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.cat.Load()
	b := cur.Derive()
	b.Put(t)
	db.cat.CompareAndSwap(cur, b.Build())
}

// Table returns the named table of the current epoch. The pointer stays
// valid (and immutable, if all writes go through SQL) forever; it simply
// stops being current once a later epoch replaces it.
func (db *DB) Table(name string) (*rel.Table, bool) {
	return db.cat.Load().Table(name)
}

// MustTable returns the named table or panics; for names known statically.
func (db *DB) MustTable(name string) *rel.Table {
	t, ok := db.Table(name)
	if !ok {
		panic(fmt.Sprintf("sqlmini: no such table %q", name))
	}
	return t
}

// DropTable removes the named table; it reports whether it existed.
func (db *DB) DropTable(name string) bool {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	cur := db.cat.Load()
	b := cur.Derive()
	if !b.Drop(name) {
		return false
	}
	db.cat.CompareAndSwap(cur, b.Build())
	return true
}

// Names returns the sorted table names of the current epoch.
func (db *DB) Names() []string {
	return append([]string(nil), db.cat.Load().Names()...)
}

// Result is the outcome of executing one statement.
type Result struct {
	// Table is the result relation for SELECT (and CREATE ... AS SELECT);
	// nil for other statements.
	Table *rel.Table
	// Affected is the number of rows inserted, deleted or updated.
	Affected int
	// Positions holds the base-table position of each output row of a
	// single-table SELECT without JOIN, UNION, DISTINCT, ORDER BY or
	// LIMIT run through a Prepared handle: the row itself, or a group's
	// first row. It is non-nil, possibly empty, for those statements, and
	// nil for any other, and for an aggregate without GROUP BY, whose row
	// is no base row's.
	Positions []uint32
	// Base is the state of the table Positions index: the one the
	// statement read.
	Base rel.Version
}

// Exec executes a single statement, parsing it through the plan cache: a
// statement text seen before under the same catalog schema reuses its
// parse tree and physical plan.
func (db *DB) Exec(src string) (*Result, error) {
	entry, hit, err := db.lookupPlan(src, db.planFP(nil))
	if err != nil {
		return nil, err
	}
	pc := "miss"
	if hit {
		pc = "hit"
	}
	return db.execute(entry.stmt, execOpts{entry: entry, src: strings.TrimSpace(src), planCache: pc})
}

// Query executes a SELECT and returns the result table.
func (db *DB) Query(src string) (*rel.Table, error) {
	res, err := db.Exec(src)
	if err != nil {
		return nil, err
	}
	if res.Table == nil {
		return nil, errNotQuery(strings.TrimSpace(src))
	}
	return res.Table, nil
}

// QueryEmpty executes a SELECT and reports whether its result is empty —
// the "[Select ...] = empty" idiom the paper uses for every invariant.
func (db *DB) QueryEmpty(src string) (bool, error) {
	t, err := db.Query(src)
	if err != nil {
		return false, err
	}
	return t.Empty(), nil
}

func errNotQuery(src string) error {
	return fmt.Errorf("sqlmini: statement %q is not a query", src)
}

// execOpts carries the optional context of one execute call.
type execOpts struct {
	entry     *planEntry
	src       string
	planCache string
	into      *QueryStats
	sess      *Session
	// strict, when non-nil, pins this statement's NULL dialect (true =
	// ANSI) regardless of the DB or session default — the invariant
	// suite's per-statement alternative to toggling SetStrictNulls, which
	// would perturb concurrent sessions.
	strict *bool
	// track asks a positional SELECT for its output rows' base positions
	// (Result.Positions); seeded runs it over the base rows seed lists of
	// the table state base.
	track, seeded bool
	seed          []uint32
	base          rel.Version
}

// writeTarget classifies a statement: the table it writes and whether it
// writes at all.
func writeTarget(stmt Stmt) (string, bool) {
	switch s := stmt.(type) {
	case *CreateStmt:
		return s.Name, true
	case *DropStmt:
		return s.Name, true
	case *InsertStmt:
		return s.Table, true
	case *DeleteStmt:
		return s.Table, true
	case *UpdateStmt:
		return s.Table, true
	}
	return "", false
}

// execute runs one statement, recording QueryStats (and a span and
// counters, when a tracer or registry is installed). Read-only statements
// pin the current epoch and run without any DB lock; writers serialize on
// writeMu, mutate copy-on-write working tables, and publish the successor
// epoch on success. Session-local writes (CREATE/DROP, and DML against a
// shadowed name) touch only the session overlay and take no lock at all.
// A non-nil into receives the statement's final QueryStats (the
// per-invariant stats feed of cohercheck -stats).
func (db *DB) execute(stmt Stmt, o execOpts) (res *Result, err error) {
	qs := &QueryStats{Kind: stmtKind(stmt), Statement: o.src, PlanCache: o.planCache}
	target, isWrite := writeTarget(stmt)
	local := false
	if isWrite && o.sess != nil {
		switch stmt.(type) {
		case *CreateStmt, *DropStmt:
			local = true // session DDL is always overlay-local
		default:
			local = o.sess.shadows(target)
		}
	}
	shared := isWrite && !local
	var sid uint64
	var overlay map[string]*rel.Table
	if o.sess != nil {
		sid = o.sess.id
		overlay = o.sess.overlay
	}
	// The statement shows as queued while it waits for the writer lock,
	// and as planning once it may run: binding and compiling happen first.
	db.cfgMu.RLock()
	qs.tok = db.queryLog.StartSession(qs.Kind, o.src, sid)
	db.cfgMu.RUnlock()
	if shared {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
	}
	qs.tok.SetPhase(obs.PhasePlan)
	cat := db.cat.Load()
	cfg := db.snapshotCfg()
	ev := cfg.ev
	if o.strict != nil {
		ev.NullEq = !*o.strict
	}
	r := &run{
		db: db, cat: cat, sess: o.sess, overlay: overlay, ev: ev, qs: qs,
		entry: o.entry, fp: sessionFP(cat, o.sess),
		pool: cfg.exec, workers: cfg.workers, morsel: cfg.morsel,
	}
	if shared {
		r.write = newCatWrite(cat)
	}
	span := obs.StartSpan(cfg.tracer, "sql.stmt", obs.String("kind", qs.Kind))
	if span != nil {
		span.SetAttr(obs.String("statement", o.src), obs.Int("epoch", int(cat.Epoch())))
		if sid != 0 {
			span.SetAttr(obs.Int("session", int(sid)))
		}
	}
	start := time.Now()
	defer func() {
		qs.Elapsed = time.Since(start)
		if res != nil && res.Table != nil {
			qs.addProduced(res.Table.NumRows())
		} else if res != nil {
			qs.addProduced(res.Affected)
		}
		qs.tok.Finish(err)
		if o.into != nil {
			*o.into = *qs
		}
		db.statsMu.Lock()
		db.stats.fold(qs)
		db.statsMu.Unlock()
		observe(cfg.metrics, qs)
		if span != nil {
			span.SetAttr(
				obs.String("storage", "columnar"),
				obs.Int("dict_size", rel.SharedDict().Len()),
				obs.Int("rows_scanned", qs.RowsScanned),
				obs.Int("rows_produced", qs.RowsProduced),
				obs.Int("hash_joins", qs.HashJoins),
				obs.Int("loop_joins", qs.LoopJoins),
				obs.Int("index_joins", qs.IndexJoins),
				obs.Int("index_scans", qs.IndexScans),
				obs.Int("pushdown_hits", qs.PushdownHits),
				obs.String("plan_cache", qs.PlanCache),
			)
			if qs.Morsels > 0 {
				span.SetAttr(
					obs.Int("parallel_morsels", qs.Morsels),
					obs.Int("parallel_steals", qs.Steals),
					obs.Int("parallel_workers", len(qs.WorkerBusy)),
				)
			}
			if err != nil {
				span.SetAttr(obs.String("error", err.Error()))
			}
			span.Finish()
		}
	}()
	if err = r.position(stmt, o); err != nil {
		return nil, err
	}
	res, err = r.dispatch(stmt)
	if err == nil && r.write != nil {
		r.write.publish(db)
	}
	if err == nil && r.track {
		res.Positions, res.Base = r.pos, r.base
	}
	return res, err
}

// observe bumps the statement counters on the installed registry.
func observe(m *obs.Registry, qs *QueryStats) {
	if m == nil {
		return
	}
	m.Counter("coherdb_sql_statements_total", obs.L("kind", qs.Kind)).Inc()
	switch qs.PlanCache {
	case "hit":
		m.Counter("coherdb_sql_plan_cache_hits_total").Inc()
	case "miss":
		m.Counter("coherdb_sql_plan_cache_misses_total").Inc()
	}
	m.Counter("coherdb_sql_index_scans_total").Add(int64(qs.IndexScans))
	m.Counter("coherdb_sql_index_joins_total").Add(int64(qs.IndexJoins))
	m.Counter("coherdb_sql_parallel_morsels_total").Add(int64(qs.Morsels))
	m.Counter("coherdb_sql_parallel_steals_total").Add(int64(qs.Steals))
	m.Counter("coherdb_sql_vectorized_batches_total").Add(int64(qs.VecBatches))
	m.Counter("coherdb_sql_vectorized_rows_total").Add(int64(qs.VecRowsIn))
}

// dispatch routes a statement to its executor.
func (r *run) dispatch(stmt Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		t, err := r.execSelect(s)
		if err != nil {
			return nil, err
		}
		return &Result{Table: t}, nil
	case *ExplainStmt:
		var t *rel.Table
		var err error
		if s.Analyze {
			t, err = r.execAnalyze(s.Query)
		} else {
			t, err = r.explainSelect(s.Query)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Table: t}, nil
	case *CreateStmt:
		return r.execCreate(s)
	case *DropStmt:
		return r.execDrop(s)
	case *InsertStmt:
		return r.execInsert(s)
	case *DeleteStmt:
		return r.execDelete(s)
	case *UpdateStmt:
		return r.execUpdate(s)
	default:
		return nil, fmt.Errorf("sqlmini: unhandled statement %T", stmt)
	}
}

func (r *run) execCreate(s *CreateStmt) (*Result, error) {
	if r.sess != nil {
		// Session CREATE lands in the overlay and may shadow a shared
		// name — CREATE TABLE D AS SELECT * FROM D captures a private
		// copy, since the source resolves before the shadow exists.
		if _, dup := r.overlay[s.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrTableExist, s.Name)
		}
	} else if _, dup := r.table(s.Name); dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExist, s.Name)
	}
	var t *rel.Table
	if s.As != nil {
		sel, err := r.execSelect(s.As)
		if err != nil {
			return nil, err
		}
		t = sel.SetName(s.Name)
	} else {
		nt, err := rel.NewTable(s.Name, s.Cols...)
		if err != nil {
			return nil, err
		}
		t = nt
	}
	if r.sess != nil {
		r.overlay[s.Name] = t
		r.sess.gen++
	} else {
		r.write.create(t)
	}
	if s.As != nil {
		return &Result{Table: t, Affected: t.NumRows()}, nil
	}
	return &Result{}, nil
}

func (r *run) execDrop(s *DropStmt) (*Result, error) {
	if r.sess != nil {
		// Session DDL touches only the overlay: dropping a shadow
		// uncovers the shared table again; dropping a shared name a
		// session never shadowed would mutate state other sessions see,
		// which sessions are not allowed to do through DDL.
		if _, ok := r.overlay[s.Name]; ok {
			delete(r.overlay, s.Name)
			r.sess.gen++
			return &Result{}, nil
		}
		if _, isShared := r.cat.Table(s.Name); isShared {
			return nil, fmt.Errorf("%w: %q", ErrSharedDrop, s.Name)
		}
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoTable, s.Name)
	}
	if !r.write.drop(s.Name) {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoTable, s.Name)
	}
	return &Result{}, nil
}

// execInsert evaluates every VALUES row before it inserts the first, so
// an error leaves the target untouched — on a session's overlay table,
// which is written in place, as much as on a working copy.
func (r *run) execInsert(s *InsertStmt) (*Result, error) {
	t, ok := r.writeTable(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, s.Table)
	}
	cols := s.Cols
	if cols == nil {
		cols = t.Columns()
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		j := t.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: %s in table %q", ErrUnknownColumn, c, s.Table)
		}
		pos[i] = j
	}
	// Each value is a batch of one row with no columns: VALUES have no row
	// to read, so any column reference fails to compile.
	rows := make([][]rel.Value, len(s.Rows))
	one, code := []uint32{0}, []uint32{0}
	for k, rexprs := range s.Rows {
		if len(rexprs) != len(cols) {
			return nil, fmt.Errorf("%w: INSERT row has %d values, want %d", rel.ErrArity, len(rexprs), len(cols))
		}
		row := make([]rel.Value, t.NumCols())
		for i, e := range rexprs {
			v, err := r.ev.compileValue(e)
			if err != nil {
				return nil, err
			}
			if err := v.eval(nil, one, code); err != nil {
				return nil, err
			}
			row[pos[i]] = dict.Value(code[0])
		}
		rows[k] = row
	}
	for _, row := range rows {
		if err := t.InsertRow(row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(s.Rows)}, nil
}

// execDelete selects the WHERE's rows, then removes them in one pass.
func (r *run) execDelete(s *DeleteStmt) (*Result, error) {
	t, ok := r.writeTable(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, s.Table)
	}
	sv := getSel(t.NumRows())
	defer selPool.Put(sv)
	sel, err := r.selectRows(t, s.Where, sv.s)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: t.DeleteRows(sel)}, nil
}

// execUpdate selects the WHERE's rows, compiles every SET expression
// against the target table, evaluates each over the table's column
// vectors on the selected rows, and only then writes the cells: SET a =
// b, b = a swaps, and an error leaves the target untouched.
func (r *run) execUpdate(s *UpdateStmt) (*Result, error) {
	t, ok := r.writeTable(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, s.Table)
	}
	for _, c := range s.Cols {
		if !t.HasColumn(c) {
			return nil, fmt.Errorf("%w: %s in table %q", ErrUnknownColumn, c, s.Table)
		}
	}
	sv := getSel(t.NumRows())
	defer selPool.Put(sv)
	sel, err := r.selectRows(t, s.Where, sv.s)
	if err != nil {
		return nil, err
	}
	sc := tableScope(t, t.Name())
	sets := make([]*vecValue, len(s.Exprs))
	for i, e := range s.Exprs {
		if sets[i], err = r.ev.compileValue(bindExpr(e, sc)); err != nil {
			return nil, err
		}
	}
	cols := tableFrame(t).cols
	codes := make([]uint32, len(sel)*len(sets)) // SET i's codes at [i*len(sel):]
	for i, v := range sets {
		if err := v.eval(cols, sel, codes[i*len(sel):(i+1)*len(sel)]); err != nil {
			return nil, err
		}
	}
	for k, ri := range sel {
		for i, c := range s.Cols {
			if err := t.Set(int(ri), c, dict.Value(codes[i*len(sel)+k])); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Affected: len(sel)}, nil
}

// selectRows returns, in increasing order and in buf's storage, the
// numbers of t's rows that where selects: the rows SELECT * FROM t WHERE
// where returns, found as that statement's scan finds them. The bound
// conjuncts are compiled first — one that does not resolve fails the
// statement, whatever rows t holds — and then run on the selection-vector
// kernels in three groups:
//
//   - column = literal conjuncts, which SELECT answers from an index.
//     DML runs them as kernels and never builds an index: a full-row
//     match would leave one many-column index per NULL pattern on the
//     published table, carried forward forever;
//   - the other conjuncts over t's columns, SELECT's pushed filter, even
//     when nothing survived the first group;
//   - the conjuncts that read no column of t, SELECT's residue, on the
//     rows that survived.
func (r *run) selectRows(t *rel.Table, where Expr, buf []uint32) ([]uint32, error) {
	n := t.NumRows()
	r.qs.addScanned(n)
	sel := identity(buf[:n])
	if where == nil {
		return sel, nil
	}
	sc := tableScope(t, t.Name())
	src := []*scope{sc}
	var groups [3][]Expr // equalities, pushed, residue
	for _, c := range splitAnd(where) {
		g := 1
		if pushTarget(c, src) < 0 {
			g = 2
		} else if _, _, ok := indexableEq(c, sc); ok {
			g = 0
		}
		groups[g] = append(groups[g], bindExpr(c, sc))
	}
	var vecs [3][]*VecPred
	for g, conj := range groups {
		var err error
		if vecs[g], err = compileVecs(&r.ev, conj); err != nil {
			return nil, err
		}
	}
	cols := tableFrame(t).cols
	for g, vp := range vecs {
		if len(vp) == 0 || (g == 2 && len(sel) == 0) {
			continue
		}
		var err error
		if sel, err = r.vecFilter(cols, sel, vp); err != nil {
			return nil, err
		}
	}
	return sel, nil
}
