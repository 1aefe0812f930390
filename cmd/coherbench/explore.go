package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"coherdb/internal/core"
	"coherdb/internal/modelcheck"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sim"
)

// The explore workload is exhaustive model checking of the Fig. 4
// fixed-assignment system plus extraOps prread operations: only sim,
// modelcheck and segment run. One operation is a pair of explorations:
// with cohercheck -modelcheck's default options (the in-memory engine,
// which never touches segment), and with its -max-mem 256K -spill-dir
// options (the segmented engine spilling, faulting and replaying).
type exploreBench struct {
	tables   sim.Tables
	fixed    *rel.Table
	extraOps int
	want     exploreWant
	workDir  string
	log      io.Writer
}

// exploreWant freezes what both explorations must find, by extra
// operations: no violation, these state, edge and depth counts, and this
// reachable-set hash from the spill run.
type exploreWant struct {
	states, edges, depth int
	hash                 uint64
}

var exploreFrozen = map[int]exploreWant{
	0: {states: 227, edges: 444, depth: 16, hash: 0xb03180f816ce9d43},
	3: {states: 18351, edges: 51541, depth: 37, hash: 0xd988954e2811d850},
}

const spillBudget = 256 << 10

func setupExplore(o options) (bench, error) {
	p := core.New()
	if err := p.Generate(); err != nil {
		return nil, err
	}
	fixed, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	b := &exploreBench{
		tables: sim.Tables{
			D: p.DB.MustTable(protocol.DirectoryTable),
			M: p.DB.MustTable(protocol.MemoryTable),
			C: p.DB.MustTable(protocol.CacheTable),
			N: p.DB.MustTable(protocol.NodeTable),
		},
		fixed:    fixed,
		extraOps: 3,
		workDir:  o.workDir,
		log:      o.log,
	}
	if o.short {
		b.extraOps = 0
	}
	b.want = exploreFrozen[b.extraOps]
	return b, nil
}

// system builds the Fig. 4 initial state, as cohercheck -modelcheck does,
// plus the extra prread operations.
func (b *exploreBench) system() (*sim.System, error) {
	sys, err := sim.NewSystem(sim.Config{
		Nodes: 2, ChannelCap: 1,
		ChannelCaps: map[string]int{"VC0": 2},
		Tables:      b.tables.Map(),
		Assignment:  b.fixed,
		MaxSteps:    100000,
	})
	if err != nil {
		return nil, err
	}
	sys.Node(0).SetCache(0xB, protocol.CacheM)
	sys.Dir().SetOwner(0xB, sim.NodeID(0))
	sys.Node(1).SetCache(0xA, protocol.CacheM)
	sys.Dir().SetOwner(0xA, sim.NodeID(1))
	sys.Node(0).Script(
		sim.Op{Kind: "previct", Addr: 0xB},
		sim.Op{Kind: "prwrite", Addr: 0xA},
	)
	sys.Node(1).Script(sim.Op{Kind: "previct", Addr: 0xA})
	for k := 0; k < b.extraOps; k++ {
		sys.Node(k % 2).Script(sim.Op{Kind: "prread", Addr: sim.Addr(0x100 + k)})
	}
	return sys, nil
}

func (b *exploreBench) warmUp() (*phase, error) {
	return b.measure(once, nil)
}

func (b *exploreBench) measure(sz size, tr obs.Tracer) (*phase, error) {
	ph := &phase{counts: map[string]float64{}}
	start := time.Now()
	n := 0
	for ; sz.more(0, n, start); n++ {
		if err := b.pair(ph, tr); err != nil {
			return nil, err
		}
	}
	ph.reps = []int{n}
	ph.busy = ph.lat.total()
	return ph, nil
}

// pair runs both explorations once; a result that differs from the frozen
// one counts as a failed operation.
func (b *exploreBench) pair(ph *phase, tr obs.Tracer) error {
	memSys, err := b.system()
	if err != nil {
		return err
	}
	spillSys, err := b.system()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.workDir, "coherbench-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var mem, spill *modelcheck.Report
	root := obs.StartSpan(tr, "explore.pair")
	t0 := time.Now()
	memErr := call(root, "modelcheck.default", func() (err error) {
		mem, err = modelcheck.Explore(memSys, modelcheck.Options{MaxStates: 2000000, CheckCoherence: true})
		return err
	})
	spillErr := call(root, "modelcheck.spill", func() (err error) {
		spill, err = modelcheck.Explore(spillSys, modelcheck.Options{
			MaxStates: 2000000, CheckCoherence: true,
			Segmented: true, MemBudget: spillBudget, SpillDir: dir, HashStates: true,
		})
		return err
	})
	ph.lat = append(ph.lat, time.Since(t0))
	root.Finish()

	ph.ops++
	err = b.check("default", mem, memErr)
	if err == nil {
		err = b.check("spill", spill, spillErr)
	}
	if err != nil {
		ph.failed++
		failLog(b.log, ph.failed, err)
		return nil
	}
	ph.work += float64(mem.States + spill.States)
	c, m := ph.counts, spill.Mem
	c["modelcheck.states"] = float64(spill.States)
	c["modelcheck.edges"] = float64(spill.Edges)
	c["modelcheck.depth"] = float64(spill.Depth)
	c["modelcheck.default_bytes_per_state"] = float64(mem.Mem.BytesPerState)
	c["segment.bytes_per_state"] = float64(m.BytesPerState)
	c["segment.spills"] = float64(m.Spills)
	c["segment.faults"] = float64(m.Faults)
	c["modelcheck.replays"] = float64(m.Replays)
	c["segment.resident_kb"] = float64(m.ResidentBytes) / 1024
	c["segment.spilled_kb"] = float64(m.SpilledBytes) / 1024
	c["segment.index_kb"] = float64(m.IndexBytes) / 1024
	c["modelcheck.frontier_kb"] = float64(m.FrontierBytes) / 1024
	return nil
}

func (b *exploreBench) check(run string, r *modelcheck.Report, err error) error {
	switch {
	case err != nil:
	case r.Violation != nil:
		err = fmt.Errorf("unexpected %s", r.Violation.Kind)
	case r.States != b.want.states || r.Edges != b.want.edges || r.Depth != b.want.depth:
		err = fmt.Errorf("explored %d states, %d edges, depth %d; want %d, %d, %d",
			r.States, r.Edges, r.Depth, b.want.states, b.want.edges, b.want.depth)
	case run == "spill" && r.StateHash != b.want.hash:
		err = fmt.Errorf("reachable-set hash %016x, want %016x", r.StateHash, b.want.hash)
	}
	if err != nil {
		return fmt.Errorf("%s exploration: %w", run, err)
	}
	return nil
}

func (b *exploreBench) layers(_, traced *phase, sp spanStats) map[string]float64 {
	out := map[string]float64{
		"modelcheck.default_s": sp.dur["modelcheck.default"].pct(50) / 1e6,
		"modelcheck.spill_s":   sp.dur["modelcheck.spill"].pct(50) / 1e6,
	}
	for k, v := range traced.counts {
		out[k] = v
	}
	return out
}

func (b *exploreBench) close() {}
