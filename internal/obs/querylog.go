package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryPhase is the coarse execution phase an in-flight statement is in.
// Phases are a small closed enum so operators can publish progress with a
// single atomic store and no allocation.
type QueryPhase int32

const (
	PhaseQueued QueryPhase = iota
	PhasePlan
	PhaseScan
	PhaseJoin
	PhaseFilter
	PhaseAggregate
	PhaseProject
	PhaseDone
)

var phaseNames = [...]string{
	"queued", "plan", "scan", "join", "filter", "aggregate", "project", "done",
}

// String returns the phase name used in /queries JSON.
func (p QueryPhase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return "unknown"
	}
	return phaseNames[p]
}

// maxStatementLen bounds the statement text retained per query so the log
// cannot pin arbitrarily large SQL strings.
const maxStatementLen = 512

// QueryRecord is the JSON form of one logged statement, either still in
// flight or finished and retained in the slow-query ring.
type QueryRecord struct {
	ID        uint64 `json:"id"`
	Kind      string `json:"kind"`
	Statement string `json:"statement"`
	Phase     string `json:"phase"`
	StartUS   int64  `json:"start_us"`
	ElapsedUS int64  `json:"elapsed_us"`
	Rows      int64  `json:"rows"`
	Done      bool   `json:"done"`
	Err       string `json:"error,omitempty"`
	// Session attributes the statement to a server session; 0 means it
	// ran outside any session (CLI, embedder).
	Session uint64 `json:"session,omitempty"`
}

// QueryToken is the handle an executor holds for one in-flight statement.
// A nil token is valid and all its methods no-op, mirroring the nil *Span
// contract, so the instrumented path needs no log-enabled checks.
type QueryToken struct {
	id      uint64
	log     *QueryLog
	kind    string
	stmt    string
	session uint64
	start   time.Time
	rows    atomic.Int64
	phase   atomic.Int32
}

// AddRows bumps the rows-so-far counter (scanned or produced).
func (t *QueryToken) AddRows(n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.rows.Add(n)
}

// SetPhase publishes the current execution phase.
func (t *QueryToken) SetPhase(p QueryPhase) {
	if t == nil {
		return
	}
	t.phase.Store(int32(p))
}

// Finish removes the statement from the in-flight set and, if it ran
// longer than the log's slow threshold (or failed), retains it in the
// slow-query ring.
func (t *QueryToken) Finish(err error) {
	if t == nil {
		return
	}
	t.log.finish(t, err)
}

func (t *QueryToken) record(now time.Time) QueryRecord {
	return QueryRecord{
		ID:        t.id,
		Kind:      t.kind,
		Statement: t.stmt,
		Phase:     QueryPhase(t.phase.Load()).String(),
		StartUS:   t.start.UnixMicro(),
		ElapsedUS: now.Sub(t.start).Microseconds(),
		Rows:      t.rows.Load(),
		Session:   t.session,
	}
}

// QueryLog tracks in-flight statements and retains recently finished slow
// (or failed) ones in a fixed-capacity ring. It backs the diagnostics
// server's /queries endpoint. Safe for concurrent use; a nil *QueryLog is
// valid and hands out nil tokens.
type QueryLog struct {
	slowAfter time.Duration

	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]*QueryToken
	buf      []QueryRecord // ring of finished slow queries
	head, n  int
}

// DefaultSlowThreshold marks statements slower than this for retention
// when NewQueryLog is given a non-positive threshold.
const DefaultSlowThreshold = 10 * time.Millisecond

// NewQueryLog builds a log retaining at most capacity finished slow
// queries (default 128) with the given slow threshold.
func NewQueryLog(capacity int, slowAfter time.Duration) *QueryLog {
	if capacity <= 0 {
		capacity = 128
	}
	if slowAfter <= 0 {
		slowAfter = DefaultSlowThreshold
	}
	return &QueryLog{
		slowAfter: slowAfter,
		inflight:  make(map[uint64]*QueryToken),
		buf:       make([]QueryRecord, capacity),
	}
}

// StartSession registers a statement as in flight, attributed to a
// server session (0 means unattributed), and returns its token. A nil log
// returns a nil token.
func (q *QueryLog) StartSession(kind, statement string, session uint64) *QueryToken {
	if q == nil {
		return nil
	}
	if len(statement) > maxStatementLen {
		statement = statement[:maxStatementLen] + "..."
	}
	t := &QueryToken{log: q, kind: kind, stmt: statement, session: session, start: time.Now()}
	q.mu.Lock()
	q.nextID++
	t.id = q.nextID
	q.inflight[t.id] = t
	q.mu.Unlock()
	return t
}

func (q *QueryLog) finish(t *QueryToken, err error) {
	now := time.Now()
	elapsed := now.Sub(t.start)
	t.phase.Store(int32(PhaseDone))
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.inflight, t.id)
	if err == nil && elapsed < q.slowAfter {
		return
	}
	rec := t.record(now)
	rec.Done = true
	if err != nil {
		rec.Err = err.Error()
	}
	if q.n < len(q.buf) {
		q.buf[(q.head+q.n)%len(q.buf)] = rec
		q.n++
		return
	}
	q.buf[q.head] = rec
	q.head = (q.head + 1) % len(q.buf)
}

// Snapshot returns the in-flight statements (oldest first) and the
// retained slow queries (oldest first).
func (q *QueryLog) Snapshot() (inflight, slow []QueryRecord) {
	if q == nil {
		return nil, nil
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	inflight = make([]QueryRecord, 0, len(q.inflight))
	for _, t := range q.inflight {
		inflight = append(inflight, t.record(now))
	}
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].ID < inflight[j].ID })
	slow = make([]QueryRecord, q.n)
	for i := 0; i < q.n; i++ {
		slow[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return inflight, slow
}

// WriteJSON renders {"in_flight": [...], "slow": [...]} for /queries.
func (q *QueryLog) WriteJSON(w io.Writer) error {
	inflight, slow := q.Snapshot()
	if inflight == nil {
		inflight = []QueryRecord{}
	}
	if slow == nil {
		slow = []QueryRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		InFlight []QueryRecord `json:"in_flight"`
		Slow     []QueryRecord `json:"slow"`
	}{inflight, slow})
}
