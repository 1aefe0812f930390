package sqlmini

import (
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/pool"
)

// QueryStats describes the work one statement did: the paper's invariant
// queries are claimed to be "fast enough to run on every revision", and
// these numbers say where each statement's time went.
type QueryStats struct {
	// Kind is the statement verb: SELECT, EXPLAIN, CREATE, INSERT,
	// DELETE, UPDATE, DROP.
	Kind string
	// Statement is the source text.
	Statement string
	// PlanCache is "hit" when the statement reused a cached parse+plan,
	// "miss" when it was parsed and planned fresh.
	PlanCache string
	// RowsScanned counts base-table rows read while building the working
	// frames (and rows examined by DELETE/UPDATE). An index scan counts
	// only the rows its bucket returned.
	RowsScanned int
	// RowsProduced counts result rows (SELECT) or affected rows (DML).
	RowsProduced int
	// HashJoins and LoopJoins count JOIN ... ON clauses by the strategy
	// the executor chose: equality conjunctions hash, everything else
	// falls back to a filtered nested loop. IndexJoins counts the hash
	// joins that probed a persistent base-table index instead of
	// building an ad-hoc hash table.
	HashJoins, LoopJoins, IndexJoins int
	// IndexScans counts table scans answered from a persistent index on
	// pushed-down equality conjuncts.
	IndexScans int
	// PushdownHits counts WHERE conjuncts that were pushed below a join
	// and applied while scanning a single base table.
	PushdownHits int
	// Morsels and Steals describe the statement's parallel phases: row
	// batches dealt to the worker pool, and batches a worker claimed
	// beyond its fair share (skewed work rebalanced by stealing). Both
	// are zero for statements that ran entirely serially.
	Morsels, Steals int
	// VecBatches counts selection-vector batches evaluated column-at-a-
	// time; VecRowsIn/VecRowsOut are the rows entering and surviving the
	// vectorized filter cascades (their ratio is the statement's overall
	// selection density). All zero when the statement ran scalar.
	VecBatches            int
	VecRowsIn, VecRowsOut int
	// WorkerBusy is each pool participant's busy time, one entry per
	// participant per parallel phase (the phase's caller first).
	WorkerBusy []time.Duration
	// Elapsed is the statement's total evaluation time.
	Elapsed time.Duration

	// tok is the statement's query-log handle (nil when no log is
	// installed); the accumulators feed it rows-so-far and phase so the
	// /queries endpoint shows live progress.
	tok *obs.QueryToken
}

// Nil-tolerant accumulators so the executor can record without guarding
// every call site (the stats pointer is nil outside an instrumented
// statement).

func (q *QueryStats) addScanned(n int) {
	if q != nil {
		q.RowsScanned += n
		q.tok.AddRows(int64(n))
	}
}

func (q *QueryStats) addProduced(n int) {
	if q != nil {
		q.RowsProduced += n
	}
}

// phase publishes the statement's current execution phase to the query
// log, when one is attached; a single nil check otherwise.
func (q *QueryStats) phase(p obs.QueryPhase) {
	if q != nil && q.tok != nil {
		q.tok.SetPhase(p)
	}
}

func (q *QueryStats) addHashJoin() {
	if q != nil {
		q.HashJoins++
	}
}

func (q *QueryStats) addLoopJoin() {
	if q != nil {
		q.LoopJoins++
	}
}

func (q *QueryStats) addIndexJoin() {
	if q != nil {
		q.IndexJoins++
	}
}

func (q *QueryStats) addIndexScan() {
	if q != nil {
		q.IndexScans++
	}
}

func (q *QueryStats) addPushdown(n int) {
	if q != nil {
		q.PushdownHits += n
	}
}

func (q *QueryStats) addVec(batches, in, out int) {
	if q != nil {
		q.VecBatches += batches
		q.VecRowsIn += in
		q.VecRowsOut += out
	}
}

func (q *QueryStats) addParallel(st pool.Stats) {
	if q == nil || st.Morsels == 0 {
		return
	}
	q.Morsels += st.Morsels
	q.Steals += st.Steals
	q.WorkerBusy = append(q.WorkerBusy, st.Busy...)
}

// DBStats aggregates QueryStats over the life of a DB.
type DBStats struct {
	// Statements counts every executed statement; Queries counts the
	// SELECTs among them.
	Statements, Queries int64
	// RowsScanned, RowsProduced, HashJoins, LoopJoins, IndexJoins,
	// IndexScans and PushdownHits sum the per-statement numbers.
	RowsScanned, RowsProduced                    int64
	HashJoins, LoopJoins, IndexJoins, IndexScans int64
	PushdownHits                                 int64
	// Morsels and Steals sum the per-statement parallel-phase numbers.
	Morsels, Steals int64
	// VecBatches, VecRowsIn and VecRowsOut sum the per-statement
	// vectorized-filter numbers.
	VecBatches, VecRowsIn, VecRowsOut int64
	// PlanCacheHits and PlanCacheMisses count text statements served
	// from (resp. inserted into) the plan cache.
	PlanCacheHits, PlanCacheMisses int64
	// EvalTime is the total statement evaluation time.
	EvalTime time.Duration
	// LastQuery is the most recent statement's stats.
	LastQuery QueryStats
}

func (s *DBStats) fold(q *QueryStats) {
	s.Statements++
	if q.Kind == "SELECT" {
		s.Queries++
	}
	s.RowsScanned += int64(q.RowsScanned)
	s.RowsProduced += int64(q.RowsProduced)
	s.HashJoins += int64(q.HashJoins)
	s.LoopJoins += int64(q.LoopJoins)
	s.IndexJoins += int64(q.IndexJoins)
	s.IndexScans += int64(q.IndexScans)
	s.PushdownHits += int64(q.PushdownHits)
	s.Morsels += int64(q.Morsels)
	s.Steals += int64(q.Steals)
	s.VecBatches += int64(q.VecBatches)
	s.VecRowsIn += int64(q.VecRowsIn)
	s.VecRowsOut += int64(q.VecRowsOut)
	switch q.PlanCache {
	case "hit":
		s.PlanCacheHits++
	case "miss":
		s.PlanCacheMisses++
	}
	s.EvalTime += q.Elapsed
	s.LastQuery = *q
}

// stmtKind names the statement verb for stats and spans.
func stmtKind(stmt Stmt) string {
	switch stmt.(type) {
	case *SelectStmt:
		return "SELECT"
	case *ExplainStmt:
		return "EXPLAIN"
	case *CreateStmt:
		return "CREATE"
	case *DropStmt:
		return "DROP"
	case *InsertStmt:
		return "INSERT"
	case *DeleteStmt:
		return "DELETE"
	case *UpdateStmt:
		return "UPDATE"
	default:
		return "UNKNOWN"
	}
}
