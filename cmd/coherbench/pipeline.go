package main

import (
	"fmt"
	"io"
	"time"

	"coherdb/internal/core"
	"coherdb/internal/obs"
)

// The pipeline workload is the push-button flow: one closed-loop caller
// runs the whole core pipeline on a fresh database, again and again.
// Generation and the deadlock story do nearly all of the work and the
// invariant queries about 1%, so a solver or VCG change shows here and a
// query-engine change must not.
type pipelineBench struct {
	// rows holds the controller tables' row counts from the set-up
	// generation; every run must reproduce them.
	rows map[string]int
	log  io.Writer
}

func setupPipeline(o options) (bench, error) {
	p := core.New()
	if err := p.Generate(); err != nil {
		return nil, err
	}
	rows := map[string]int{}
	tables, err := p.ControllerTables()
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		rows[t.Name()] = t.NumRows()
	}
	return &pipelineBench{rows: rows, log: o.log}, nil
}

func (b *pipelineBench) warmUp() (*phase, error) {
	return b.measure(once, nil)
}

func (b *pipelineBench) measure(sz size, tr obs.Tracer) (*phase, error) {
	ph := &phase{counts: map[string]float64{}}
	start := time.Now()
	n := 0
	for ; sz.more(0, n, start); n++ {
		t0 := time.Now()
		p, err := runPipeline(tr)
		d := time.Since(t0)
		ph.ops++
		ph.lat = append(ph.lat, d)
		ph.busy += d
		if err == nil {
			err = b.check(p)
		}
		if err != nil {
			ph.failed++
			failLog(b.log, ph.failed, err)
			continue
		}
		pipelineCounts(p.Report, ph.counts)
	}
	ph.reps = []int{n}
	ph.work = float64(n)
	return ph, nil
}

// runPipeline makes the calls core.Run makes for zero Options, with one
// span per phase.
func runPipeline(tr obs.Tracer) (*core.Pipeline, error) {
	root := obs.StartSpan(tr, "pipeline.run")
	defer root.Finish()
	p := core.New()
	if err := call(root, "core.Generate", p.Generate); err != nil {
		return p, err
	}
	if err := call(root, "core.CheckInvariants", func() error { return p.CheckInvariants(0) }); err != nil {
		return p, err
	}
	if err := call(root, "core.CheckDeadlocks", func() error { return p.CheckDeadlocks(nil, 0) }); err != nil {
		return p, err
	}
	return p, call(root, "core.MapToHardware", p.MapToHardware)
}

// check verifies one run: every assignment of the story but the last has
// cycles, the last has none, and the controller tables have the set-up
// generation's row counts.
func (b *pipelineBench) check(p *core.Pipeline) error {
	order := p.Report.AssignmentOrder
	for i, name := range order {
		rep := p.Report.Deadlock[name]
		if rep == nil {
			return fmt.Errorf("no deadlock report for %s", name)
		}
		if last := i == len(order)-1; rep.Deadlocked() == last {
			return fmt.Errorf("assignment %s: deadlocked=%v", name, rep.Deadlocked())
		}
	}
	tables, err := p.ControllerTables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		if t.NumRows() != b.rows[t.Name()] {
			return fmt.Errorf("table %s has %d rows, set-up generated %d", t.Name(), t.NumRows(), b.rows[t.Name()])
		}
	}
	return nil
}

// pipelineCounts records what one run produced: solver work summed over
// the eight controllers, the deadlock story's sizes per assignment, and
// the extended table's rows.
func pipelineCounts(r *core.Report, counts map[string]float64) {
	var cand, rows, memo float64
	for _, st := range r.GenStats {
		cand += float64(st.Candidates)
		rows += float64(st.Rows)
		memo += float64(st.MemoHits)
	}
	counts["constraint.candidates"] = cand
	counts["constraint.rows"] = rows
	counts["constraint.memo_hits"] = memo
	var deps, edges, cycles float64
	for _, name := range r.AssignmentOrder {
		rep := r.Deadlock[name]
		deps += float64(rep.Stats.ProtocolRows)
		edges += float64(len(rep.Graph.Edges()))
		cycles += float64(len(rep.Cycles))
	}
	n := float64(len(r.AssignmentOrder))
	counts["deadlock.dep_rows"] = deps / n
	counts["deadlock.vcg_edges"] = edges / n
	counts["deadlock.cycles"] = cycles / n
	counts["hwmap.ed_rows"] = float64(r.Mapping.Extended.NumRows())
}

func (b *pipelineBench) layers(_, traced *phase, sp spanStats) map[string]float64 {
	out := map[string]float64{}
	for k, v := range traced.counts {
		out[k] = v
	}
	for metric, span := range map[string]string{
		"core.generate_ms":   "core.Generate",
		"core.invariants_ms": "core.CheckInvariants",
		"core.deadlock_ms":   "core.CheckDeadlocks",
		"core.map_ms":        "core.MapToHardware",
	} {
		out[metric] = sp.dur[span].pct(50) / 1000
	}
	return out
}

func (b *pipelineBench) close() {}
