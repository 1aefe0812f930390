// The benchmark harness: one benchmark per table, figure and quantitative
// claim of the paper (see the experiment index in DESIGN.md and the
// measured results in EXPERIMENTS.md).
//
// Run with: go test -bench=. -benchmem
package coherdb_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/check"
	"coherdb/internal/constraint"
	"coherdb/internal/core"
	"coherdb/internal/deadlock"
	"coherdb/internal/hwmap"
	"coherdb/internal/modelcheck"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sim"
	"coherdb/internal/sqlmini"
)

// Shared generated state, built once per benchmark binary run.
var (
	setupOnce sync.Once
	setupPipe *core.Pipeline
	setupErr  error
)

func pipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	setupOnce.Do(func() {
		p := core.New()
		if err := p.Generate(); err != nil {
			setupErr = err
			return
		}
		setupPipe = p
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return setupPipe
}

func simTables(b *testing.B) sim.Tables {
	p := pipeline(b)
	return sim.Tables{
		D: p.DB.MustTable(protocol.DirectoryTable),
		M: p.DB.MustTable(protocol.MemoryTable),
		C: p.DB.MustTable(protocol.CacheTable),
		N: p.DB.MustTable(protocol.NodeTable),
	}
}

// --- C1: incremental vs monolithic table generation (§3) -----------------
// The paper: incremental generation finishes "within a few minutes" while
// solving the full conjunction takes "around 6 hours". The sweep widens the
// Fig. 3 fragment one output column at a time: monolithic cost multiplies
// by the domain size per column while incremental cost stays proportional
// to the (constant-sized) result.

func BenchmarkGenerateIncremental(b *testing.B) {
	for _, scale := range []int{1, 2, 3, 4} {
		spec, err := protocol.Figure3FragmentSpec(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cols=%d/space=%d", len(spec.ColumnNames()), spec.SpaceSize()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := constraint.Solve(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGenerateMonolithic(b *testing.B) {
	for _, scale := range []int{1, 2, 3, 4} {
		spec, err := protocol.Figure3FragmentSpec(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cols=%d/space=%d", len(spec.ColumnNames()), spec.SpaceSize()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := constraint.MonolithicOpts(spec, constraint.Options{MonolithicLimit: 1 << 30}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C2: generating the full directory table D (30 cols, ~500 rows) ------

func BenchmarkGenerateDirectoryD(b *testing.B) {
	spec, err := protocol.SpecBuilders()[0].Build() // D
	if err != nil {
		b.Fatal(err)
	}
	// One untimed solve populates the spec's compiled-kernel cache, so the
	// loop measures steady-state generation; the one-off lowering cost is
	// reported separately as Stats.CompileTime.
	if _, _, err := constraint.Solve(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, _, err := constraint.Solve(spec)
		if err != nil {
			b.Fatal(err)
		}
		if tab.NumCols() != 30 {
			b.Fatal("wrong shape")
		}
	}
}

// --- C6: generating all eight controller tables --------------------------

func BenchmarkGenerateAllControllers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := sqlmini.NewDB()
		if _, err := protocol.GenerateAllOpts(db, constraint.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C3: the ~50-invariant static suite (§4.3) ---------------------------
// The paper: "All of the protocol invariants (around 50) are checked on a
// SUN Sparc 10 within 5 minutes."
//
// Measured speedup (PR 4): 7.30 ms/op at the BENCH_3.json baseline to
// 2.32 ms/op — 3.1x, beating the ≥2x acceptance target. The single-CPU
// CI host runs parallel and serial dispatch at the same speed (the pool
// degrades to inline execution), so the whole gain is single-thread work:
// plan-bound compiled predicates replacing the tree-walking interpreter,
// arena-backed projection, and the grouped fast path. On a multi-core
// host the suite additionally fans out: independent invariants are dealt
// one at a time to the shared work-stealing pool (see check.Suite.Run).

func BenchmarkInvariantSuite(b *testing.B) {
	p := pipeline(b)
	suite := check.ProtocolSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := suite.Run(p.DB, check.Options{})
		if check.Summarize(results).Failed != 0 {
			b.Fatal("invariants failed")
		}
	}
}

func BenchmarkInvariantSuiteSerial(b *testing.B) {
	p := pipeline(b)
	suite := check.ProtocolSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.Run(p.DB, check.Options{Workers: 1})
	}
}

// --- O1: observability overhead on the invariant suite --------------------
// The instrumentation contract: with a nil Tracer every span helper no-ops,
// so BenchmarkInvariantSuite above doubles as the "tracing off" baseline
// (its numbers stay comparable across revisions). This variant runs the
// same suite with a live collector and metrics registry to bound the cost
// of switching observability on.

func BenchmarkInvariantSuiteObserved(b *testing.B) {
	p := pipeline(b)
	suite := check.ProtocolSuite()
	col := obs.NewCollector(0)
	reg := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := suite.Run(p.DB, check.Options{Tracer: col, Metrics: reg})
		if check.Summarize(results).Failed != 0 {
			b.Fatal("invariants failed")
		}
	}
}

// --- O2: EXPLAIN ANALYZE cost over the plain statement --------------------
// ANALYZE re-executes the statement with per-operator counters and clocks
// attached (see sqlmini/analyze.go); the pair below prices that against the
// uninstrumented run of the same join. The off path is protected separately:
// every az hook starts with a nil check, so plain statements never pay for
// the instrumentation (TestNilTracerOverheadBound bounds the same discipline
// on the tracer side).

func BenchmarkExplainAnalyzeOverhead(b *testing.B) {
	p := pipeline(b)
	v, err := protocol.BuildAssignment(protocol.AssignVC4)
	if err != nil {
		b.Fatal(err)
	}
	p.DB.DropTable("V")
	p.DB.PutTable(v)
	const stmt = `SELECT D.inmsg, V.v FROM D JOIN V ON D.inmsg = V.m`
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.DB.Query(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.DB.Query("EXPLAIN ANALYZE " + stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestNilTracerOverheadBound checks the <5% acceptance bound directly: the
// per-invariant instrumentation with a nil tracer (one child span, a few
// attrs, a finish) must cost under 5% of an average invariant query, so the
// hooks are free when observability is off.
func TestNilTracerOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based bound")
	}
	p := core.New()
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	suite := check.ProtocolSuite()
	n := suite.Len()
	suiteRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			suite.Run(p.DB, check.Options{})
		}
	})
	hookRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The exact nil-tracer call sequence check.Run performs per
			// invariant.
			root := obs.StartSpan(nil, "check.suite", obs.Int("invariants", n))
			sp := root.Child("check.invariant", obs.String("invariant", "x"))
			sp.SetAttr(obs.Int("violations", 0))
			sp.Finish()
			root.Finish()
		}
	})
	perInvariant := float64(suiteRes.NsPerOp()) / float64(n)
	hooks := float64(hookRes.NsPerOp())
	if ratio := hooks / perInvariant; ratio > 0.05 {
		t.Fatalf("nil-tracer hooks cost %.2f%% of an invariant query (%.0fns vs %.0fns), want < 5%%",
			100*ratio, hooks, perInvariant)
	}
}

// --- C4/F4: VCG construction and cycle detection (§4.1-4.2) --------------

func BenchmarkVCGConstruction(b *testing.B) {
	p := pipeline(b)
	tables, err := p.ControllerTables()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range protocol.AssignmentNames() {
		v, err := protocol.BuildAssignment(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := deadlock.Analyze(tables, v, deadlock.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeadlockStory is the §4.2 story as core.Pipeline.CheckDeadlocks
// runs it: initial4, vc4 and fixed, each analysed in the paper's final
// configuration.
func BenchmarkDeadlockStory(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.CheckDeadlocks(nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: pairwise composition vs the abandoned transitive closure --------

func BenchmarkPairwiseVsClosure(b *testing.B) {
	p := pipeline(b)
	tables, err := p.ControllerTables()
	if err != nil {
		b.Fatal(err)
	}
	v, err := protocol.BuildAssignment(protocol.AssignVC4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := deadlock.Analyze(tables, v, deadlock.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("closure", func(b *testing.B) {
		opts := deadlock.DefaultOptions()
		opts.Closure = true
		for i := 0; i < b.N; i++ {
			if _, err := deadlock.Analyze(tables, v, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A2: quad placements on/off ------------------------------------------

func BenchmarkPlacementAblation(b *testing.B) {
	p := pipeline(b)
	tables, err := p.ControllerTables()
	if err != nil {
		b.Fatal(err)
	}
	v, err := protocol.BuildAssignment(protocol.AssignVC4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-placements", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := deadlock.Analyze(tables, v, deadlock.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-placements", func(b *testing.B) {
		opts := deadlock.DefaultOptions()
		opts.NoPlacements = true
		for i := 0; i < b.N; i++ {
			if _, err := deadlock.Analyze(tables, v, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C5/F5: hardware mapping and reconstruction (§5) ----------------------

func BenchmarkMapAndReconstruct(b *testing.B) {
	p := pipeline(b)
	d := p.DB.MustTable(protocol.DirectoryTable)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := sqlmini.NewDB()
		m, err := hwmap.Partition(db, d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapPhase splits the push-button run's map phase into its steps:
// partitioning ED into the nine implementation tables, the reconstruction
// check, the executable equivalence check (every ED row routed through the
// nine tables) and the implementation invariant suite, beside the whole
// phase as core.MapToHardware runs it on a fresh pipeline.
func BenchmarkMapPhase(b *testing.B) {
	d := pipeline(b).DB.MustTable(protocol.DirectoryTable)
	db := sqlmini.NewDB()
	m, err := hwmap.Partition(db, d)
	if err != nil {
		b.Fatal(err)
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"partition", func() error { _, err := hwmap.Partition(sqlmini.NewDB(), d); return err }},
		{"verify", func() error { _, err := m.Verify(); return err }},
		{"equivalence", m.VerifyEquivalence},
		{"impl-suite", func() error {
			if sum := check.Summarize(check.ImplementationSuite().Run(db, check.Options{})); sum.Failed+sum.Errors > 0 {
				return fmt.Errorf("implementation suite: %s", sum)
			}
			return nil
		}},
		{"map-to-hardware", func() error {
			p := core.New()
			p.DB.PutTable(d)
			return p.MapToHardware()
		}},
	}
	for _, st := range steps {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A3: explicit-state model checking vs SQL static analysis ------------
// The paper (§4.2): model checkers can find such deadlocks but hit state
// explosion. The same Fig. 4 configuration is checked both ways; the SQL
// analysis cost is independent of the workload while BFS states multiply.

func BenchmarkModelCheckVsSQL(b *testing.B) {
	p := pipeline(b)
	tables, err := p.ControllerTables()
	if err != nil {
		b.Fatal(err)
	}
	st := simTables(b)
	v4table, err := protocol.BuildAssignment(protocol.AssignVC4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sql-vcg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := deadlock.Analyze(tables, v4table, deadlock.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Deadlocked() {
				b.Fatal("deadlock missed")
			}
		}
	})
	// Finding the known deadlock: the search stops at the end of the
	// expansion round that finds the first counter-example.
	b.Run("modelcheck/find-deadlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := figure4ModelSystem(st, v4table)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := modelcheck.Explore(sys, modelcheck.Options{MaxStates: 2000000})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Violation == nil || rep.Violation.Kind != "deadlock" {
				b.Fatal("deadlock missed")
			}
			b.ReportMetric(float64(rep.States), "states")
		}
	})
	// Verifying deadlock freedom: the state space must be exhausted, and
	// it multiplies with every added operation — the state explosion the
	// paper's SQL method sidesteps (its cost is workload independent).
	fixedTable, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		b.Fatal(err)
	}
	for _, extraOps := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("modelcheck/verify/extra-ops=%d", extraOps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := figure4ModelSystem(st, fixedTable)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < extraOps; k++ {
					sys.Node(k % 2).Script(sim.Op{Kind: "prread", Addr: sim.Addr(0x100 + k)})
				}
				rep, err := modelcheck.Explore(sys, modelcheck.Options{MaxStates: 5000000})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Violation != nil {
					b.Fatal("unexpected violation")
				}
				b.ReportMetric(float64(rep.States), "states")
			}
		})
	}
}

// figure4ModelSystem builds the Fig. 4 initial state for model checking
// (no choreography: all interleavings are explored).
func figure4ModelSystem(st sim.Tables, v *rel.Table) (*sim.System, error) {
	sys, err := sim.NewSystem(sim.Config{
		Nodes: 2, ChannelCap: 1,
		ChannelCaps: map[string]int{"VC0": 2},
		Tables:      st.Map(),
		Assignment:  v,
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
	return sys, nil
}

// --- A4: static checking vs random simulation on a seeded bug ------------

func BenchmarkRandomVsStatic(b *testing.B) {
	p := pipeline(b)
	d := p.DB.MustTable(protocol.DirectoryTable)
	bad := d.Clone()
	for i := 0; i < bad.NumRows(); i++ {
		if bad.Get(i, "locmsg").Equal(rel.S("upgack")) {
			if err := bad.Set(i, "nxtdirpv", rel.S(protocol.PVInc)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("static-suite", func(b *testing.B) {
		db := sqlmini.NewDB()
		protocol.RegisterFuncs(db.Register)
		for _, name := range p.DB.Names() {
			db.PutTable(p.DB.MustTable(name))
		}
		db.PutTable(bad)
		suite := check.ProtocolSuite()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results := suite.Run(db, check.Options{})
			if check.Summarize(results).Failed == 0 {
				b.Fatal("seeded bug missed")
			}
		}
	})
	b.Run("random-trial", func(b *testing.B) {
		tabs := simTables(b)
		v, err := protocol.BuildAssignment(protocol.AssignFixed)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sys, err := sim.RandomSystem(tabs, v, sim.RandomConfig{
				Nodes: 3, Addrs: 2, OpsPerNode: 10, Seed: int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- F2: simulator throughput on the readex flow --------------------------

func BenchmarkSimulatorReadEx(b *testing.B) {
	st := simTables(b)
	v, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := sim.ReadExSystem(st, v, 3)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != sim.Completed {
			b.Fatal("readex flow failed")
		}
	}
}

// --- F4: the Fig. 4 scenario, frozen and fixed -----------------------------

func BenchmarkFigure4Replay(b *testing.B) {
	st := simTables(b)
	for _, cfg := range []struct {
		name    string
		assign  string
		outcome sim.Outcome
	}{
		{"vc4-deadlocks", protocol.AssignVC4, sim.Deadlocked},
		{"fixed-completes", protocol.AssignFixed, sim.Completed},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunFigure4(st, cfg.assign)
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != cfg.outcome {
					b.Fatalf("outcome = %v", res.Outcome)
				}
			}
		})
	}
}

// --- C5 dynamic: spec engine vs the Figure 5 implementation engine --------

func BenchmarkSpecVsImplEngine(b *testing.B) {
	p := pipeline(b)
	if p.Report.Mapping == nil {
		if err := p.MapToHardware(); err != nil {
			b.Fatal(err)
		}
	}
	st := simTables(b)
	v, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, mapping bool) {
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{
				Nodes: 3, ChannelCap: 16, Tables: st.Map(),
				Assignment: v, MaxSteps: 200000,
			}
			if mapping {
				cfg.Mapping = p.Report.Mapping
			}
			sys, err := sim.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			seedSys, err := sim.RandomSystem(st, v, sim.RandomConfig{
				Nodes: 3, Addrs: 3, OpsPerNode: 20, Seed: int64(i + 1), DirectOps: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			sim.CopyScripts(seedSys, sys)
			res, err := sys.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != sim.Completed {
				b.Fatal("workload did not complete")
			}
		}
	}
	b.Run("spec-table", func(b *testing.B) { run(b, false) })
	b.Run("fig5-implementation", func(b *testing.B) { run(b, true) })
}

// --- simulator scaling: throughput vs node count ---------------------------

func BenchmarkSimulatorScaling(b *testing.B) {
	st := simTables(b)
	v, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		b.Fatal(err)
	}
	for _, nodes := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			totalOps := 0
			for i := 0; i < b.N; i++ {
				sys, err := sim.RandomSystem(st, v, sim.RandomConfig{
					Nodes: nodes, Addrs: 4, OpsPerNode: 20, Seed: int64(i + 1), DirectOps: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcome != sim.Completed {
					b.Fatal("workload did not complete")
				}
				totalOps += res.Stats.OpsCompleted
				b.ReportMetric(res.Stats.AvgOpLatency(), "steps/op")
			}
			b.ReportMetric(float64(totalOps)/float64(b.N), "ops/run")
		})
	}
}

// --- X1: out-of-core state exploration (ISSUE 9) --------------------------

// BenchmarkStateExplore measures how many states the model checker
// reaches at a FIXED memory budget, plus throughput (states/s) and
// footprint (bytes/state). It keeps compressed code tuples (~tens of
// bytes per state incl. index); without a spill directory it stops with
// ErrBudget, and with one it holds its residency under the same budget
// indefinitely. The spilled run must reach ≥100x the states that a
// System clone plus fingerprint per state fits in the same budget.
//
// The unbudgeted case is one default exploration of coherbench's explore
// workload: the Fig. 4 fixed system plus 3 prreads, no budget, all
// 18,351 states and 51,541 edges.
func BenchmarkStateExplore(b *testing.B) {
	st := simTables(b)
	fixedTable, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		b.Fatal(err)
	}
	build := func(prreads int) *sim.System {
		sys, err := figure4ModelSystem(st, fixedTable)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < prreads; k++ {
			sys.Node(k % 2).Script(sim.Op{Kind: "prread", Addr: sim.Addr(0x100 + k)})
		}
		return sys
	}

	b.Run("unbudgeted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := modelcheck.Explore(build(3), modelcheck.Options{MaxStates: 2000000, CheckCoherence: true})
			if err != nil {
				b.Fatal(err)
			}
			if rep.States != 18351 || rep.Edges != 51541 || rep.Violation != nil {
				b.Fatalf("explored %d states, %d edges, violation %v; want 18351, 51541, none",
					rep.States, rep.Edges, rep.Violation)
			}
		}
	})

	const budget = 1 << 20 // 1 MiB for every run
	// inMemoryStatesAt1MiB is how many states the retired in-memory
	// engine held in this budget on this system before ErrBudget
	// (BENCH_9/BENCH_10, EXPERIMENTS X1). internal/modelcheck's
	// TestOracleStatesAt1MiB keeps it honest against the test oracle,
	// which is that engine.
	const inMemoryStatesAt1MiB = 219
	var spilledStates int

	run := func(name string, opts modelcheck.Options, out *int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Four prreads widen the state space past the spilled
				// run's state cap.
				rep, err := modelcheck.Explore(build(4), opts)
				if err != nil && !errors.Is(err, modelcheck.ErrBudget) && !errors.Is(err, modelcheck.ErrLimit) {
					b.Fatal(err)
				}
				*out = rep.States
				b.ReportMetric(float64(rep.States), "states")
				b.ReportMetric(float64(rep.Mem.BytesPerState), "bytes/state")
				if s := rep.Elapsed.Seconds(); s > 0 {
					b.ReportMetric(float64(rep.States)/s, "states/s")
				}
			}
		})
	}

	run("segmented", modelcheck.Options{
		MaxStates: 2000000, CheckCoherence: true, MemBudget: budget,
	}, new(int))
	run("spilled", modelcheck.Options{
		MaxStates: 150000, CheckCoherence: true, MemBudget: budget,
		SpillDir: b.TempDir(),
	}, &spilledStates)

	if spilledStates > 0 {
		ratio := float64(spilledStates) / inMemoryStatesAt1MiB
		b.Logf("states at %dB budget: in-memory=%d (frozen) spilled=%d (%.0fx)",
			budget, inMemoryStatesAt1MiB, spilledStates, ratio)
		if ratio < 100 {
			b.Errorf("spilled/in-memory state ratio %.1fx below the 100x floor", ratio)
		}
	}
}

// --- substrate microbenchmarks --------------------------------------------

// Allocation regression gate: PR 3 measured 1,228 allocs/op here; the
// morsel executor's compiled pushdown filters and arena-carved projection
// rows brought it to 46 allocs/op. ReportAllocs keeps the number visible
// on every run — treat a climb back into the hundreds as a regression.
func BenchmarkSQLSelectWhere(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DB.Query(`SELECT inmsg, bdirst FROM D WHERE locmsg = 'retry'`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorizedFilter pins the selection-vector kernels on a
// pushdown filter scan: a non-indexable predicate over table D, evaluated
// column-at-a-time. bench.sh records it under its sub-benchmark name,
// which its baselines already carry.
func BenchmarkVectorizedFilter(b *testing.B) {
	p := pipeline(b)
	const q = `SELECT inmsg, dirst FROM D WHERE inmsg <> 'readex' AND locmsg IS NOT NULL`
	b.Run("vectorized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.DB.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLPreparedSelect is the plan-cache fast path in isolation: the
// statement is parsed and planned once, and every iteration re-executes the
// prepared handle — the per-execution floor for an indexed point query.
func BenchmarkSQLPreparedSelect(b *testing.B) {
	p := pipeline(b)
	stmt, err := p.DB.Prepare(`SELECT inmsg, bdirst FROM D WHERE locmsg = 'retry'`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stmt.ExecStatsDialect(false); err != nil {
			b.Fatal(err)
		}
	}
}

// Allocation regression gate: PR 3 measured 3,070 allocs/op; the hash
// join's bucket-pointer table, allocation-free string(key) probes, and
// flat joined-row arena brought it to 831 allocs/op.
func BenchmarkSQLJoin(b *testing.B) {
	p := pipeline(b)
	b.ReportAllocs()
	v, err := protocol.BuildAssignment(protocol.AssignVC4)
	if err != nil {
		b.Fatal(err)
	}
	p.DB.DropTable("V")
	p.DB.PutTable(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DB.Query(`SELECT D.inmsg, V.v FROM D JOIN V ON D.inmsg = V.m`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- D1: delta-driven incremental re-checking -----------------------------
// The edit-check loop the revision layer buys: after one row of D changes,
// re-verifying the protocol should cost the handful of D-reading
// invariants, not a from-scratch re-solve plus the full 61-invariant
// suite. full-rebuild is that from-scratch baseline; noop-revision prices
// the pure revision machinery (diff all tables, skip everything);
// single-row-edit is the workload the layer exists for.

// deltaPipeline is a private generated pipeline for the delta benchmarks,
// which mutate controller tables and must not corrupt the shared fixture.
var (
	deltaOnce sync.Once
	deltaPipe *core.Pipeline
	deltaErr  error
)

func deltaPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	deltaOnce.Do(func() {
		p := core.New()
		if err := p.Generate(); err != nil {
			deltaErr = err
			return
		}
		deltaPipe = p
	})
	if deltaErr != nil {
		b.Fatal(deltaErr)
	}
	return deltaPipe
}

func BenchmarkDeltaRecheck(b *testing.B) {
	p := deltaPipeline(b)
	suite := check.ProtocolSuite()
	opts := check.Options{}

	b.Run("full-rebuild", func(b *testing.B) {
		spec, err := protocol.SpecBuilders()[0].Build() // D
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _, err := constraint.Solve(spec)
			if err != nil {
				b.Fatal(err)
			}
			p.DB.PutTable(d)
			results := suite.Run(p.DB, opts)
			if check.Summarize(results).Errors != 0 {
				b.Fatal("invariant errors")
			}
		}
	})

	b.Run("noop-revision", func(b *testing.B) {
		rev := p.DB.BeginRevision()
		prev := suite.Run(p.DB, opts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := rev.Commit()
			prev = suite.RunDelta(p.DB, prev, d, opts)
		}
	})

	b.Run("single-row-edit", func(b *testing.B) {
		tab := p.DB.MustTable(protocol.DirectoryTable)
		col := tab.ColumnsRef()[0]
		// Two distinct values of the column to flip a cell between.
		v1 := tab.At(0, 0)
		v2 := v1
		for i := 1; i < tab.NumRows(); i++ {
			if !tab.At(i, 0).Equal(v1) {
				v2 = tab.At(i, 0)
				break
			}
		}
		if v2.Equal(v1) {
			b.Fatal("column 0 of D is constant; pick another edit target")
		}
		rev := p.DB.BeginRevision()
		prev := suite.Run(p.DB, opts)
		vals := [2]rel.Value{v1, v2}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tab.Set(0, col, vals[(i+1)%2]); err != nil {
				b.Fatal(err)
			}
			d := rev.Commit()
			prev = suite.RunDelta(p.DB, prev, d, opts)
		}
		b.StopTimer()
		// Leave D as generated for any benchmark running after this one.
		if err := tab.Set(0, col, v1); err != nil {
			b.Fatal(err)
		}
	})

	// The same flip as SQL, as the edit-recheck workload sends it: UPDATE
	// the cell WHERE every column matches row 0, through DB.Exec, on a
	// database of its own over the generated tables (DML publishes
	// copy-on-write successors, so they stay as generated).
	b.Run("sql-row-edit", func(b *testing.B) {
		db := sqlmini.NewDB()
		protocol.RegisterFuncs(db.Register)
		for _, name := range p.DB.Names() {
			db.PutTable(p.DB.MustTable(name))
		}
		tab := db.MustTable(protocol.DirectoryTable)
		v1 := tab.At(0, 0)
		v2 := v1
		for i := 1; i < tab.NumRows() && v2.Equal(v1); i++ {
			v2 = tab.At(i, 0)
		}
		if v2.Equal(v1) {
			b.Fatal("column 0 of D is constant; pick another edit target")
		}
		// flip[k] sets column 0 of row 0 from vals[k] to vals[1-k].
		vals := [2]rel.Value{v1, v2}
		var flip [2]string
		for k, v := range vals {
			conds := make([]string, tab.NumCols())
			for j, c := range tab.ColumnsRef() {
				cell := tab.At(0, j)
				if j == 0 {
					cell = v
				}
				if cell.IsNull() {
					conds[j] = c + " IS NULL"
				} else {
					conds[j] = c + " = " + cell.Quoted()
				}
			}
			flip[k] = fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", protocol.DirectoryTable,
				tab.ColumnsRef()[0], vals[1-k].Quoted(), strings.Join(conds, " AND "))
		}
		rev := db.BeginRevision()
		prev := suite.Run(db, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(flip[i%2])
			if err != nil || res.Affected < 1 {
				b.Fatalf("%s: affected %v, err %v", flip[i%2], res, err)
			}
			d := rev.Commit()
			prev = suite.RunDelta(db, prev, d, opts)
		}
	})
}
