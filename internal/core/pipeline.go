// Package core assembles the paper's methodology into one pipeline — the
// "push-button manner" of §1: from a database input of table schemas, SQL
// column constraints and static checks, it (1) generates the eight
// controller tables with the incremental constraint solver, (2) statically
// checks the ~50 protocol invariants and the virtual-channel deadlock
// freedom of a sequence of channel assignments, and (3) maps the debugged
// directory table onto the nine hardware implementation tables, verifying
// the mapping by reconstruction. The output is a database of debugged
// tables plus a report of everything that was established.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/constraint"
	"coherdb/internal/deadlock"
	"coherdb/internal/hwmap"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Errors reported by the pipeline.
var (
	ErrInvariantsFailed = errors.New("core: protocol invariants violated")
	ErrStillDeadlocked  = errors.New("core: final channel assignment still has cycles")
)

// Report aggregates the pipeline outcome.
type Report struct {
	// GenStats holds per-controller solver statistics.
	GenStats map[string]constraint.Stats
	// Invariants holds the static check results, in suite order.
	Invariants []check.Result
	// InvariantSummary aggregates them.
	InvariantSummary check.Summary
	// Deadlock maps assignment name to its analysis report.
	Deadlock map[string]*deadlock.Report
	// AssignmentOrder is the sequence analyzed.
	AssignmentOrder []string
	// Mapping is the §5 hardware mapping of D.
	Mapping *hwmap.Mapping
	// ImplChecks holds the §5 implementation-table check results.
	ImplChecks []check.Result
	// Elapsed breaks down phase times.
	Elapsed map[string]time.Duration
}

// Pipeline owns the protocol database across phases.
type Pipeline struct {
	DB     *sqlmini.DB
	Report *Report
	// Workers bounds parallelism in the phases that support it.
	Workers int
	// Tracer and Metrics observe every phase; install them with Observe
	// so the database's statement tracer is wired too.
	Tracer  obs.Tracer
	Metrics *obs.Registry

	// partitioner caches the §5 hardware mapping across MapToHardware
	// calls, keyed on D's pointer and revision.
	partitioner hwmap.Partitioner
}

// New creates a pipeline with an empty database.
func New() *Pipeline {
	return &Pipeline{
		DB: sqlmini.NewDB(),
		Report: &Report{
			GenStats: map[string]constraint.Stats{},
			Deadlock: map[string]*deadlock.Report{},
			Elapsed:  map[string]time.Duration{},
		},
	}
}

// SetWorkers bounds parallelism across the pipeline: phase-level fan-out
// (solver goals, invariant queries, composition jobs) and the database's
// within-query morsel parallelism share the same bound. 0 means the
// shared pool's full size.
func (p *Pipeline) SetWorkers(n int) {
	p.Workers = n
	p.DB.SetWorkers(n)
}

// Observe installs a tracer and metrics registry on the pipeline and on
// its database's statement executor, which then also exports the
// coherdb_sql_* counters (statements, plan-cache hits, index usage).
// Either may be nil.
func (p *Pipeline) Observe(t obs.Tracer, m *obs.Registry) {
	p.Tracer, p.Metrics = t, m
	p.DB.SetTracer(t)
	p.DB.SetMetrics(m)
}

// phase starts timing a pipeline phase and returns its span, the parent
// of any step spans. The returned func must be deferred: it records the
// phase's Elapsed even when the phase fails, finishes the phase span, and
// observes the phase-duration histogram.
func (p *Pipeline) phase(name string) (*obs.Span, func()) {
	start := time.Now()
	span := obs.StartSpan(p.Tracer, "pipeline."+name)
	return span, func() {
		d := time.Since(start)
		p.Report.Elapsed[name] = d
		span.Finish()
		if p.Metrics != nil {
			p.Metrics.Help("coherdb_phase_duration_seconds", "Wall time of each pipeline phase.")
			p.Metrics.Histogram("coherdb_phase_duration_seconds", nil, obs.L("phase", name)).ObserveDuration(d)
		}
	}
}

// Generate builds all eight controller tables into the database.
func (p *Pipeline) Generate() error {
	_, done := p.phase("generate")
	defer done()
	stats, err := protocol.GenerateAllOpts(p.DB, constraint.Options{
		Workers: p.Workers,
		Tracer:  p.Tracer,
		Metrics: p.Metrics,
	})
	if err != nil {
		return err
	}
	p.Report.GenStats = stats
	return nil
}

// CheckInvariants runs the ~50-invariant static suite.
func (p *Pipeline) CheckInvariants(workers int) error {
	_, done := p.phase("invariants")
	defer done()
	results := check.ProtocolSuite().Run(p.DB, check.Options{Workers: workers, Tracer: p.Tracer, Metrics: p.Metrics})
	p.Report.Invariants = results
	p.Report.InvariantSummary = check.Summarize(results)
	if p.Report.InvariantSummary.Failed > 0 || p.Report.InvariantSummary.Errors > 0 {
		return fmt.Errorf("%w: %s", ErrInvariantsFailed, p.Report.InvariantSummary)
	}
	return nil
}

// CheckDeadlocks analyzes the channel-assignment sequence; the last
// assignment must be cycle free. workers bounds the analyzer's
// per-controller derivation parallelism (0 means its default).
func (p *Pipeline) CheckDeadlocks(order []string, workers int) error {
	_, done := p.phase("deadlock")
	defer done()
	if len(order) == 0 {
		order = protocol.AssignmentNames()
	}
	p.Report.AssignmentOrder = order
	tables, err := p.ControllerTables()
	if err != nil {
		return err
	}
	assignments := map[string]*rel.Table{}
	for _, name := range order {
		v, err := protocol.BuildAssignment(name)
		if err != nil {
			return err
		}
		assignments[name] = v
	}
	dopts := deadlock.DefaultOptions()
	dopts.Workers = workers
	dopts.Tracer = p.Tracer
	dopts.Metrics = p.Metrics
	reports, err := deadlock.AnalyzeStory(tables, assignments, order, dopts)
	if err != nil {
		return err
	}
	p.Report.Deadlock = reports
	final := reports[order[len(order)-1]]
	if final.Deadlocked() {
		return fmt.Errorf("%w: %v", ErrStillDeadlocked, final.Cycles)
	}
	return nil
}

// MapToHardware builds ED, partitions it into the nine implementation
// tables and verifies the reconstruction. Its steps report as the
// hwmap.partition, hwmap.verify and hwmap.equivalence children of the
// phase span.
func (p *Pipeline) MapToHardware() error {
	span, done := p.phase("mapping")
	defer done()
	d, ok := p.DB.Table(protocol.DirectoryTable)
	if !ok {
		return fmt.Errorf("core: table D not generated yet")
	}
	var m *hwmap.Mapping
	step := func(name string, f func() error) error {
		sp := span.Child(name)
		defer sp.Finish()
		err := f()
		if sp != nil && m != nil {
			impl := 0
			for _, t := range m.Tables {
				impl += t.NumRows()
			}
			sp.SetAttr(obs.Int("ed_rows", m.Extended.NumRows()), obs.Int("impl_rows", impl))
		}
		return err
	}
	var reused bool
	if err := step("hwmap.partition", func() (err error) {
		m, reused, err = p.partitioner.PartitionIncremental(p.DB, d)
		return err
	}); err != nil {
		return err
	}
	if reused && p.Report.Mapping == m && p.Report.ImplChecks != nil {
		// D has not moved since the last mapping: ED, the nine
		// implementation tables, and their checks are all still valid.
		return nil
	}
	if err := step("hwmap.verify", func() error { _, err := m.Verify(); return err }); err != nil {
		return err
	}
	if err := step("hwmap.equivalence", m.VerifyEquivalence); err != nil {
		return err
	}
	p.Report.Mapping = m
	// The implementation-detail rows must satisfy the Fig. 5 queue and
	// feedback discipline.
	p.Report.ImplChecks = check.ImplementationSuite().Run(p.DB, check.Options{Workers: p.Workers, Tracer: p.Tracer, Metrics: p.Metrics})
	if sum := check.Summarize(p.Report.ImplChecks); sum.Failed > 0 || sum.Errors > 0 {
		return fmt.Errorf("%w: implementation tables: %s", ErrInvariantsFailed, sum)
	}
	return nil
}

// ControllerTables returns the eight generated controller tables in
// builder order.
func (p *Pipeline) ControllerTables() ([]*rel.Table, error) {
	var out []*rel.Table
	for _, sb := range protocol.SpecBuilders() {
		t, ok := p.DB.Table(sb.Name)
		if !ok {
			return nil, fmt.Errorf("core: table %s not generated yet", sb.Name)
		}
		out = append(out, t)
	}
	return out, nil
}

// WriteTables dumps every table in the database as CSV files under dir.
func (p *Pipeline) WriteTables(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range p.DB.Names() {
		t := p.DB.MustTable(name)
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
