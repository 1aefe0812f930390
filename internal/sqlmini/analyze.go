package sqlmini

import (
	"fmt"
	"strings"
	"time"

	"coherdb/internal/rel"
)

// EXPLAIN ANALYZE support. The executor's operators report into an azRun
// hung off the statement's run context: one azOp per plan step, holding
// measured rows out, wall time, the morsel/steal deltas of the step's
// parallel phases, hash-join build vs probe split and the bytes a join
// gathered. The off path stays allocation-free: every hook below starts
// with a single r.az nil check and no time.Now call, so plain SELECTs (and
// therefore the <5% nil-tracer overhead bound) are untouched.

// azOp is one executed operator's measurements.
type azOp struct {
	op     string // same vocabulary as EXPLAIN: scan, indexscan, join, ...
	target string
	detail string

	rows    int // rows out
	elapsed time.Duration
	start   time.Time

	// morsels0/steals0 snapshot the statement's parallel counters at op
	// start; the deltas at op end are the operator's own.
	morsels0, steals0 int
	morsels, steals   int

	buildTime, probeTime time.Duration
	arenaBytes           int64

	// vecBatches counts the selection-vector batches the op's vectorized
	// filter evaluated; selIn/selOut are the selection sizes entering and
	// surviving the cascade, rendered as sel_density.
	vecBatches    int
	selIn, selOut int
}

// azRun collects the operator measurements of one EXPLAIN ANALYZE.
type azRun struct {
	ops []azOp
	cur int // index of the open op, -1 when none
}

// azBegin opens an operator measurement. Exactly one op is open at a
// time: operators in execSelectOne run strictly sequentially, and the
// helpers below write only through r.az.cur.
func (r *run) azBegin(op, target string) {
	if r.az == nil {
		return
	}
	r.az.ops = append(r.az.ops, azOp{
		op: op, target: target,
		start:    time.Now(),
		morsels0: r.qs.Morsels, steals0: r.qs.Steals,
	})
	r.az.cur = len(r.az.ops) - 1
}

// azEnd closes the open operator with its output row count.
func (r *run) azEnd(rows int) {
	if r.az == nil || r.az.cur < 0 {
		return
	}
	o := &r.az.ops[r.az.cur]
	o.elapsed = time.Since(o.start)
	o.rows = rows
	o.morsels = r.qs.Morsels - o.morsels0
	o.steals = r.qs.Steals - o.steals0
	r.az.cur = -1
}

// azSet renames the open op and sets its detail; scanSource uses it to
// flip a planned scan to an indexscan, r.join to record the strategy its
// joinPlan fixed.
func (r *run) azSet(op, detail string) {
	if r.az == nil || r.az.cur < 0 {
		return
	}
	o := &r.az.ops[r.az.cur]
	if op != "" {
		o.op = op
	}
	o.detail = detail
}

// azTracks reports whether an analyze run is collecting, for call sites
// that must avoid building detail strings on the off path.
func (r *run) azTracks() bool { return r.az != nil && r.az.cur >= 0 }

// azBuildProbe records the hash-join phase split on the open op.
func (r *run) azBuildProbe(build, probe time.Duration) {
	if r.az == nil || r.az.cur < 0 {
		return
	}
	o := &r.az.ops[r.az.cur]
	o.buildTime, o.probeTime = build, probe
}

// azVec records a vectorized filter cascade on the open op: batches
// evaluated, selection rows in, survivors out.
func (r *run) azVec(batches, in, out int) {
	if r.az == nil || r.az.cur < 0 {
		return
	}
	o := &r.az.ops[r.az.cur]
	o.vecBatches += batches
	o.selIn += in
	o.selOut += out
}

// azArena adds the bytes of a join's gathered output columns to the open
// op, rendered as arena_bytes.
func (r *run) azArena(n int64) {
	if r.az == nil || r.az.cur < 0 || n <= 0 {
		return
	}
	r.az.ops[r.az.cur].arenaBytes += n
}

// execAnalyze runs the query with operator measurement enabled and
// renders the annotated plan: one row per executed operator with measured
// rows, wall time in microseconds and a detail column carrying the
// operator's strategy plus its parallel and join-output numbers.
func (r *run) execAnalyze(s *SelectStmt) (*rel.Table, error) {
	r.az = &azRun{cur: -1}
	defer func() { r.az = nil }()
	if _, err := r.execSelect(s); err != nil {
		return nil, err
	}
	out, err := rel.NewTable("plan", "step", "op", "target", "rows", "time_us", "detail")
	if err != nil {
		return nil, err
	}
	for _, o := range r.az.ops {
		if err := out.InsertRow([]rel.Value{
			rel.I(int64(out.NumRows() + 1)),
			rel.S(o.op),
			rel.S(o.target),
			rel.I(int64(o.rows)),
			rel.I(o.elapsed.Microseconds()),
			rel.S(o.analyzeDetail()),
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// analyzeDetail renders the measured annotations after the op's strategy
// text: morsels/steals when the op had a parallel phase, build/probe when
// it was a hash join, the output bytes when a join gathered rows.
func (o *azOp) analyzeDetail() string {
	parts := make([]string, 0, 4)
	if o.detail != "" {
		parts = append(parts, o.detail)
	}
	if o.vecBatches > 0 {
		density := 0.0
		if o.selIn > 0 {
			density = float64(o.selOut) / float64(o.selIn)
		}
		parts = append(parts, fmt.Sprintf("sel_density=%.2f vec_batches=%d", density, o.vecBatches))
	}
	if o.morsels > 0 {
		parts = append(parts, fmt.Sprintf("morsels=%d steals=%d", o.morsels, o.steals))
	}
	if o.buildTime > 0 || o.probeTime > 0 {
		parts = append(parts, fmt.Sprintf("build_us=%d probe_us=%d",
			o.buildTime.Microseconds(), o.probeTime.Microseconds()))
	}
	if o.arenaBytes > 0 {
		parts = append(parts, fmt.Sprintf("arena_bytes=%d", o.arenaBytes))
	}
	return strings.Join(parts, "; ")
}
