package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/core"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// The edit-recheck workload is the every-revision loop of cohercheck
// -incremental: one closed-loop caller sends seeded one-row SQL edits
// through DB.Exec, and after each commits the revision and re-checks only
// the invariants the delta touched. It is write-heavy on sqlmini DML, rel
// copy-on-write diffs, delta and check, and never reaches the solver or
// the VCG.
//
// A repetition is one round: a fresh database over the set-up generation's
// tables, an untimed baseline suite run, then roundEdits edits of the
// script the seed draws. The warm-up is one round. Every round replays the
// same script, so the per-edit counts of any number of rounds are
// identical. Rounds are short because the random inserts and deletes drift
// the tables away from the generated protocol: over 10,000 edits the
// median edit costs more than twice what it does over the first 1,000.
type editBench struct {
	seed       int64
	suite      *check.Suite
	tables     []*rel.Table
	names      []string
	roundEdits int
	log        io.Writer
}

const (
	// roundEdits is one round's length; the chained results are compared
	// with a full suite run every checkEvery edits and at a round's end.
	roundEdits      = 1000
	shortRoundEdits = 200
	checkEvery      = 1000
)

func setupEditRecheck(o options) (bench, error) {
	p := core.New()
	if err := p.Generate(); err != nil {
		return nil, err
	}
	tables, err := p.ControllerTables()
	if err != nil {
		return nil, err
	}
	b := &editBench{seed: o.seed, suite: check.ProtocolSuite(), tables: tables, roundEdits: roundEdits, log: o.log}
	if o.short {
		b.roundEdits = shortRoundEdits
	}
	for _, t := range tables {
		b.names = append(b.names, t.Name())
	}
	return b, nil
}

func (b *editBench) warmUp() (*phase, error) {
	return b.measure(once, nil)
}

func (b *editBench) measure(sz size, tr obs.Tracer) (*phase, error) {
	ph := &phase{counts: map[string]float64{}}
	start := time.Now()
	n := 0
	for ; sz.more(0, n, start); n++ {
		b.round(ph, tr)
	}
	ph.reps = []int{n}
	ph.work = float64(len(ph.lat))
	ph.busy = ph.lat.total()
	return ph, nil
}

// round replays the edit script on a fresh database. An edit that errors
// or matches no row, and a chained RunDelta that disagrees with a full
// suite run, count as failed.
func (b *editBench) round(ph *phase, tr obs.Tracer) {
	db := sqlmini.NewDB()
	protocol.RegisterFuncs(db.Register)
	for _, t := range b.tables {
		// SQL DML derives copy-on-write successors, so the generated
		// tables themselves are never modified.
		db.PutTable(t)
	}
	var opts check.Options
	rev := db.BeginRevision()
	prev := b.suite.Run(db, opts)
	rng := rand.New(rand.NewSource(b.seed))

	before := sqlCountsOf(db)
	var fullChecks sqlCounts
	for e := 1; e <= b.roundEdits; e++ {
		stmt := nextEdit(rng, db, b.names)
		ph.ops++

		root := obs.StartSpan(tr, "edit")
		t0 := time.Now()
		sp := root.Child("sqlmini.DB.Exec")
		res, err := db.Exec(stmt)
		sp.Finish()
		sp = root.Child("sqlmini.Revision.Commit")
		d := rev.Commit()
		sp.Finish()
		sp = root.Child("check.Suite.RunDelta")
		prev = b.suite.RunDelta(db, prev, d, opts)
		sp.Finish()
		ph.lat = append(ph.lat, time.Since(t0))
		root.Finish()

		if err == nil && res.Affected < 1 {
			err = errors.New("matched no row")
		}
		if err != nil {
			ph.failed++
			failLog(b.log, ph.failed, fmt.Errorf("edit %d %q: %w", e, stmt, err))
		}
		for _, r := range prev {
			if r.Skipped {
				ph.counts["skipped"]++
			} else {
				ph.counts["rechecked"]++
			}
		}
		ph.counts["delta_rows"] += float64(d.Rows())

		if e%checkEvery == 0 || e == b.roundEdits {
			s0 := sqlCountsOf(db)
			full := b.suite.Run(db, opts)
			if renderResults(full) != renderResults(prev) {
				ph.failed++
				failLog(b.log, ph.failed, fmt.Errorf("edit %d: chained RunDelta results differ from a full suite run", e))
			}
			fullChecks = fullChecks.plus(sqlCountsOf(db).minus(s0))
		}
	}
	st := sqlCountsOf(db).minus(before).minus(fullChecks)
	ph.counts["edits"] += float64(b.roundEdits)
	ph.counts["rows_scanned"] += float64(st.scanned)
	ph.counts["plan_hits"] += float64(st.hits)
	ph.counts["plan_misses"] += float64(st.misses)
}

// nextEdit draws one edit of a random controller table, as
// internal/check's randomized edit-script test does: a one-cell UPDATE
// matched on the full row (70%), a near-duplicate INSERT (15%), or a
// one-row DELETE matched on the full row (15%). New values come from the
// same column, so edits stay schema-plausible.
func nextEdit(rng *rand.Rand, db *sqlmini.DB, names []string) string {
	name := names[rng.Intn(len(names))]
	t := db.MustTable(name)
	n, w := t.NumRows(), t.NumCols()
	op := rng.Intn(100)
	switch {
	case op >= 70 && op < 85:
		src := rng.Intn(n)
		vals := make([]string, w)
		for j := range vals {
			vals[j] = t.At(src, j).Quoted()
		}
		k := rng.Intn(w)
		vals[k] = t.At(rng.Intn(n), k).Quoted()
		return fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, strings.Join(vals, ", "))
	case op >= 85 && n > 2:
		// Matching on the full row deletes its duplicates too; edit a
		// cell instead when that would leave fewer than two rows.
		if i := rng.Intn(n); n-copies(t, i) >= 2 {
			return fmt.Sprintf("DELETE FROM %s WHERE %s", name, rowMatch(t, i))
		}
	}
	i, j := rng.Intn(n), rng.Intn(w)
	v := t.At(rng.Intn(n), j)
	return fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", name, t.ColumnsRef()[j], v.Quoted(), rowMatch(t, i))
}

// copies counts the rows of t equal to row i, itself included.
func copies(t *rel.Table, i int) int {
	n := 0
	for r := 0; r < t.NumRows(); r++ {
		same := true
		for j := 0; j < t.NumCols() && same; j++ {
			same = t.CodeAt(r, j) == t.CodeAt(i, j)
		}
		if same {
			n++
		}
	}
	return n
}

// rowMatch renders a WHERE clause matching row i on every column.
func rowMatch(t *rel.Table, i int) string {
	conds := make([]string, t.NumCols())
	for j, c := range t.ColumnsRef() {
		if v := t.At(i, j); v.IsNull() {
			conds[j] = c + " IS NULL"
		} else {
			conds[j] = c + " = " + v.Quoted()
		}
	}
	return strings.Join(conds, " AND ")
}

// renderResults canonicalizes a suite run for byte comparison: invariant
// name, error, and violating rows, leaving out timing, stats and the
// Skipped marker.
func renderResults(results []check.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "== %s ==\n", r.Invariant.Name)
		switch {
		case r.Err != nil:
			fmt.Fprintf(&b, "error: %v\n", r.Err)
		case r.Violations == nil:
			b.WriteString("<nil>\n")
		default:
			if err := r.Violations.WriteCSV(&b); err != nil {
				fmt.Fprintf(&b, "render error: %v\n", err)
			}
		}
	}
	return b.String()
}

// sqlCounts are the DB.Stats counters the workloads report.
type sqlCounts struct {
	stmts, scanned, hashJoins, indexScans, hits, misses int64
}

func sqlCountsOf(db *sqlmini.DB) sqlCounts {
	s := db.Stats()
	return sqlCounts{s.Statements, s.RowsScanned, s.HashJoins, s.IndexScans, s.PlanCacheHits, s.PlanCacheMisses}
}

func (a sqlCounts) minus(b sqlCounts) sqlCounts {
	return sqlCounts{a.stmts - b.stmts, a.scanned - b.scanned, a.hashJoins - b.hashJoins,
		a.indexScans - b.indexScans, a.hits - b.hits, a.misses - b.misses}
}

func (a sqlCounts) plus(b sqlCounts) sqlCounts {
	return sqlCounts{a.stmts + b.stmts, a.scanned + b.scanned, a.hashJoins + b.hashJoins,
		a.indexScans + b.indexScans, a.hits + b.hits, a.misses + b.misses}
}

func (b *editBench) layers(_, traced *phase, sp spanStats) map[string]float64 {
	c := traced.counts
	edits := c["edits"]
	out := map[string]float64{
		"sqlmini.dml_p50_us":            sp.dur["sqlmini.DB.Exec"].pct(50),
		"sqlmini.dml_p99_us":            sp.dur["sqlmini.DB.Exec"].pct(99),
		"sqlmini.commit_p50_us":         sp.dur["sqlmini.Revision.Commit"].pct(50),
		"check.rundelta_p50_us":         sp.dur["check.Suite.RunDelta"].pct(50),
		"check.rundelta_p99_us":         sp.dur["check.Suite.RunDelta"].pct(99),
		"check.rechecked_per_edit":      c["rechecked"] / edits,
		"check.skip_ratio":              c["skipped"] / (c["skipped"] + c["rechecked"]),
		"delta.rows_per_edit":           c["delta_rows"] / edits,
		"sqlmini.rows_scanned_per_edit": c["rows_scanned"] / edits,
		"sqlmini.plan_cache_hit_ratio":  c["plan_hits"] / (c["plan_hits"] + c["plan_misses"]),
	}
	return out
}

func (b *editBench) close() {}
