package deadlock

import (
	"fmt"
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// Options tunes the analysis.
type Options struct {
	// Relaxed ignores messages when matching input and output assignments
	// during composition, capturing transaction interleavings (§4.1).
	// The paper's final method uses the relaxation; it defaults to on.
	Relaxed bool
	// NoPlacements disables the five quad-placement relations (ablation:
	// only L≠H≠R is considered). The Fig. 4 deadlock is invisible
	// without placements.
	NoPlacements bool
	// Closure repeatedly composes pairwise tables until no new
	// dependencies are added. The paper's first attempt used a transitive
	// closure and "abandoned [it] due to the excessive number of spurious
	// cycles"; it is kept as an ablation.
	Closure bool
	// Workers bounds per-controller derivation parallelism on the shared
	// worker pool; 0 means the pool's full size.
	Workers int
	// Label names the channel assignment in spans and metrics; empty
	// means the V table's own name. AnalyzeStory sets it per assignment.
	Label string
	// Tracer, when set, receives one "deadlock.analyze" span per analysis
	// carrying the Stats.
	Tracer obs.Tracer
	// Metrics, when set, records graph-size gauges (coherdb_vcg_nodes,
	// coherdb_vcg_edges, coherdb_vcg_cycles) and a cycle-search duration
	// histogram, labelled by assignment.
	Metrics *obs.Registry
}

// DefaultOptions returns the paper's final configuration.
func DefaultOptions() Options { return Options{Relaxed: true} }

// Stats reports the work done by one analysis.
type Stats struct {
	ControllerRows int
	PlacementRows  int
	ComposedRows   int
	ProtocolRows   int
	Rounds         int
	// Nodes and Edges are the virtual channel graph size; Cycles the
	// number of elementary cycles found in it.
	Nodes, Edges, Cycles int
	Elapsed              time.Duration
	// ComposeElapsed is the portion of Elapsed spent applying placements
	// and composing the protocol dependency table (closure rounds
	// included); CycleElapsed the portion spent in cycle search.
	ComposeElapsed, CycleElapsed time.Duration
}

// Report is the outcome of one deadlock analysis.
type Report struct {
	Graph    *VCG
	Cycles   []Cycle
	Protocol []DepRow
	Stats    Stats
}

// Deadlocked reports whether any cycle was found.
func (r *Report) Deadlocked() bool { return len(r.Cycles) > 0 }

// Analyze runs the §4.1 method over the given controller tables and channel
// assignment.
func Analyze(controllers []*rel.Table, v *rel.Table, opts Options) (_ *Report, err error) {
	start := time.Now()
	label := opts.Label
	if label == "" {
		label = v.Name()
	}
	span := obs.StartSpan(opts.Tracer, "deadlock.analyze", obs.String("assignment", label))
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.Finish()
	}()
	assign, err := NewAssignment(v)
	if err != nil {
		return nil, err
	}
	exec := pool.Shared()
	workers := opts.Workers
	if workers <= 0 || workers > exec.Size() {
		workers = exec.Size()
	}

	// Individual controller dependency tables under exact matching — these
	// correspond to the placement L≠H≠R (§4.1). Each controller's edges
	// derive independently, so the tables are dealt to the shared pool;
	// results land at their table's index, keeping output order serial.
	individual := make([][][2]quad, len(controllers))
	if _, err := exec.Each(workers, len(controllers), 1, func(ti, _, _ int) error {
		rows, err := controllerDeps(controllers[ti], assign)
		individual[ti] = rows
		return err
	}); err != nil {
		return nil, err
	}
	var stats Stats
	composeStart := time.Now()
	a := &atoms{ids: map[quad]int32{}}
	base := make([]*itable, len(controllers))
	for ti, rows := range individual {
		t := &itable{in: make([]int32, len(rows)), out: make([]int32, len(rows)), origin: controllers[ti].Name()}
		for r, d := range rows {
			t.in[r], t.out[r] = a.intern(d[0]), a.intern(d[1])
		}
		base[ti] = t
		stats.ControllerRows += len(rows)
	}

	// Every placement set holds every individual table with the
	// placement's role identifications applied: a placement maps each
	// individual atom to its placed atom once, and each table through
	// that map.
	placements := Placements()
	if opts.NoPlacements {
		placements = placements[:1]
	}
	nbase := len(a.quads)
	sets := make([][]*itable, len(placements))
	for pi, p := range placements {
		placed := a.placed(p, nbase)
		suffix := ""
		if p.Name != "L!=H!=R" {
			suffix = "@" + p.Name
		}
		for _, t := range base {
			pt := &itable{in: make([]int32, len(t.in)), out: make([]int32, len(t.out)), origin: t.origin + suffix}
			for r := range t.in {
				pt.in[r], pt.out[r] = placed[t.in[r]], placed[t.out[r]]
			}
			sets[pi] = append(sets[pi], pt)
			stats.PlacementRows += len(pt.in)
		}
	}

	// The protocol dependency table: union of all individual tables (all
	// placements) and all pairwise tables, plus the optional closure (the
	// paper's abandoned first attempt).
	comp := composeProtocol(sets, a, opts.Relaxed, opts.Closure)
	protocol, ends, channels := a.depRows(comp)
	stats.ComposedRows, stats.Rounds, stats.ProtocolRows = comp.composed, comp.rounds, len(protocol)
	stats.ComposeElapsed = time.Since(composeStart)

	g := newVCG(protocol, ends, channels)
	cycleStart := time.Now()
	cycles := g.Cycles()
	stats.CycleElapsed = time.Since(cycleStart)
	stats.Nodes = len(g.Nodes())
	stats.Edges = len(g.Edges())
	stats.Cycles = len(cycles)
	stats.Elapsed = time.Since(start)
	if span != nil {
		span.SetAttr(
			obs.Int("composed_rows", stats.ComposedRows),
			obs.Int("atoms", len(a.quads)),
			obs.Duration("compose_elapsed", stats.ComposeElapsed),
			obs.Int("protocol_rows", stats.ProtocolRows),
			obs.Int("nodes", stats.Nodes),
			obs.Int("edges", stats.Edges),
			obs.Int("cycles", stats.Cycles),
			obs.Duration("cycle_elapsed", stats.CycleElapsed),
		)
	}
	opts.observe(label, stats)
	return &Report{
		Graph:    g,
		Cycles:   cycles,
		Protocol: protocol,
		Stats:    stats,
	}, nil
}

// observe reports a finished analysis to the metrics registry.
func (o Options) observe(label string, stats Stats) {
	if o.Metrics == nil {
		return
	}
	l := obs.L("assignment", label)
	o.Metrics.Help("coherdb_vcg_nodes", "Virtual channel graph node count per assignment.")
	o.Metrics.Gauge("coherdb_vcg_nodes", l).Set(int64(stats.Nodes))
	o.Metrics.Help("coherdb_vcg_edges", "Virtual channel graph edge count per assignment.")
	o.Metrics.Gauge("coherdb_vcg_edges", l).Set(int64(stats.Edges))
	o.Metrics.Help("coherdb_vcg_cycles", "Elementary cycles found per assignment.")
	o.Metrics.Gauge("coherdb_vcg_cycles", l).Set(int64(stats.Cycles))
	o.Metrics.Help("coherdb_cycle_search_duration_seconds", "Wall time of VCG cycle search.")
	o.Metrics.Histogram("coherdb_cycle_search_duration_seconds", nil, l).ObserveDuration(stats.CycleElapsed)
}

// AnalyzeStory runs the analysis over a sequence of named assignments and
// returns the per-assignment reports — the §4.2 narrative: find cycles,
// modify V, repeat until none remain.
func AnalyzeStory(controllers []*rel.Table, assignments map[string]*rel.Table, order []string, opts Options) (map[string]*Report, error) {
	out := make(map[string]*Report, len(assignments))
	for _, name := range order {
		v, ok := assignments[name]
		if !ok {
			return nil, fmt.Errorf("deadlock: assignment %q missing", name)
		}
		po := opts
		po.Label = name
		rep, err := Analyze(controllers, v, po)
		if err != nil {
			return nil, fmt.Errorf("deadlock: analyzing %q: %w", name, err)
		}
		out[name] = rep
	}
	return out, nil
}
