// Command cohercheck runs the paper's static analyses: the §4.3 invariant
// suite and the §4.1 virtual-channel deadlock analysis.
//
// Usage:
//
//	cohercheck                       # everything: invariants + deadlock story
//	cohercheck -invariants           # only the ~50-invariant suite
//	cohercheck -deadlock -assign vc4 # analyze one channel assignment
//	cohercheck -messages             # print the Figure 1 message catalog
//	cohercheck -metrics              # append Prometheus-style metrics (per-invariant
//	                                 # durations, solver counters, VCG sizes) to stdout
//	cohercheck -trace                # dump collected spans as JSON lines to stderr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/core"
	"coherdb/internal/deadlock"
	"coherdb/internal/modelcheck"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/segment"
	"coherdb/internal/sim"
)

func main() {
	invariants := flag.Bool("invariants", false, "run only the invariant suite")
	deadlocks := flag.Bool("deadlock", false, "run only the deadlock analysis")
	assign := flag.String("assign", "", "analyze a single assignment (initial4, vc4, fixed)")
	messages := flag.Bool("messages", false, "print the message catalog (Figure 1)")
	repair := flag.Bool("repair", false, "with -assign: iteratively repair the assignment until cycle free")
	mc := flag.Bool("modelcheck", false, "explore the Fig. 4 configuration with the explicit-state model checker (baseline)")
	verbose := flag.Bool("v", false, "print per-invariant results and VCG details")
	stats := flag.Bool("stats", false, "print a per-invariant execution profile (elapsed, rows scanned, join strategies, morsels) sorted by elapsed")
	incremental := flag.Bool("incremental", false, "edit-check loop: read DML statements from stdin and re-verify only the invariants the edit can touch")
	traceFlag := flag.Bool("trace", false, "collect spans (phases, solves, statements) and dump them as JSON lines to stderr at exit")
	metricsFlag := flag.Bool("metrics", false, "write Prometheus-style metrics to stdout at exit")
	listen := flag.String("listen", "", "serve live diagnostics (metrics, healthz, pprof, traces, queries) on this address, e.g. :8080")
	traceOut := flag.String("trace-out", "", "write the span tree as Chrome trace_event JSON (Perfetto-loadable) to this file at exit")
	workers := flag.Int("workers", 0, "bound parallelism in generation, checking and deadlock analysis (0 = GOMAXPROCS)")
	flag.Bool("segmented", false, "ignored: -modelcheck always runs the out-of-core engine (accepted so existing command lines keep working)")
	maxMem := flag.String("max-mem", "", "with -modelcheck: memory budget, e.g. 256M; spills to -spill-dir or stops at the budget")
	spillDir := flag.String("spill-dir", "", "with -modelcheck: directory for spilled state segments")
	baselineCache := flag.String("baseline-cache", "", "with -incremental: cache file for the passing baseline, keyed by a hash of the specs and table contents; a fresh process with a matching hash skips the baseline run")
	flag.Parse()

	if *messages {
		fmt.Print(protocol.Figure1Table().String())
		return
	}

	diag, err := core.StartDiag(core.DiagConfig{
		Trace: *traceFlag, Metrics: *metricsFlag,
		Listen: *listen, TraceOut: *traceOut,
	})
	if err != nil {
		fail(err)
	}
	tr, reg := diag.Tracer, diag.Registry
	flush := diag.Close

	p := core.New()
	p.SetWorkers(*workers)
	diag.Attach(p)
	if err := p.Generate(); err != nil {
		fail(err)
	}
	if *mc {
		if err := runModelCheck(p, *assign, *maxMem, *spillDir); err != nil {
			fail(err)
		}
		flush()
		return
	}
	if *incremental {
		if err := runIncremental(p, *workers, tr, reg, *stats, *baselineCache); err != nil {
			fail(err)
		}
		flush()
		return
	}
	runAll := !*invariants && !*deadlocks

	if *invariants || runAll {
		results := check.ProtocolSuite().Run(p.DB, check.Options{Workers: *workers, Tracer: tr, Metrics: reg})
		sum := check.Summarize(results)
		fmt.Println(sum)
		for _, r := range results {
			if *verbose || !r.Passed() {
				status := "ok"
				if r.Err != nil {
					status = "ERROR: " + r.Err.Error()
				} else if !r.Passed() {
					status = fmt.Sprintf("VIOLATED (%d rows)", r.Violations.NumRows())
				}
				fmt.Printf("  %-28s %-9s %s\n", r.Invariant.Name, r.Invariant.Ref, status)
			}
		}
		if *stats {
			printInvariantStats(results)
		}
		if sum.Failed > 0 || sum.Errors > 0 {
			flush()
			os.Exit(1)
		}
	}

	if *deadlocks || runAll {
		tables, err := p.ControllerTables()
		if err != nil {
			fail(err)
		}
		order := protocol.AssignmentNames()
		if *assign != "" {
			order = []string{*assign}
		}
		for _, name := range order {
			v, err := protocol.BuildAssignment(name)
			if err != nil {
				fail(err)
			}
			if *repair {
				res, err := deadlock.Repair(tables, v, deadlock.DefaultOptions(), 64)
				if err != nil {
					fail(err)
				}
				fmt.Printf("== repairing %s: converged=%v after %d action(s)\n",
					name, res.Converged, len(res.Actions))
				for _, a := range res.Actions {
					fmt.Printf("   %s\n", a)
				}
				continue
			}
			dopts := deadlock.DefaultOptions()
			dopts.Workers = *workers
			dopts.Label = name
			dopts.Tracer = tr
			dopts.Metrics = reg
			rep, err := deadlock.Analyze(tables, v, dopts)
			if err != nil {
				fail(err)
			}
			fmt.Printf("== %s: %d dependency rows, %d edges, %d cycle(s) (%v)\n",
				name, rep.Stats.ProtocolRows, len(rep.Graph.Edges()), len(rep.Cycles),
				rep.Stats.Elapsed.Round(1000))
			for _, c := range rep.Cycles {
				fmt.Printf("   cycle %s\n", c)
				if *verbose {
					for _, ev := range rep.Graph.CycleEvidence(c) {
						fmt.Printf("     via %s\n", ev)
					}
				}
			}
		}
	}
	flush()
}

// runIncremental is the delta-driven edit-check loop: a full invariant run
// establishes the baseline, then every DML statement read from stdin
// commits a revision and re-verifies only the invariants whose input
// tables the revision touched — the rest carry over as skipped.
func runIncremental(p *core.Pipeline, workers int, tr obs.Tracer, reg *obs.Registry, stats bool, cachePath string) error {
	suite := check.ProtocolSuite()
	opts := check.Options{Workers: workers, Tracer: tr, Metrics: reg}
	rev := p.DB.BeginRevision()
	t0 := time.Now()
	var prev []check.Result
	if cachePath != "" {
		if loaded, ok := check.LoadBaseline(cachePath, p.DB, suite); ok {
			// Run the cached baseline through an empty delta: analyzable
			// invariants carry over as skipped, the rest re-check.
			prev = suite.RunDelta(p.DB, loaded, rev.Commit(), opts)
			skipped := 0
			for _, r := range prev {
				if r.Skipped {
					skipped++
				}
			}
			fmt.Printf("baseline: cached, %d/%d skipped: %s (%v)\n",
				skipped, len(prev), check.Summarize(prev), time.Since(t0).Round(time.Microsecond))
		}
	}
	if prev == nil {
		prev = suite.Run(p.DB, opts)
		fmt.Printf("baseline: %s (%v)\n", check.Summarize(prev), time.Since(t0).Round(time.Microsecond))
		if cachePath != "" {
			if err := check.SaveBaseline(cachePath, p.DB, suite, prev); err != nil {
				fmt.Fprintln(os.Stderr, "baseline cache not written:", err)
			}
		}
	}
	fmt.Println("incremental mode: one DML statement per line (INSERT/UPDATE/DELETE), Ctrl-D to finish")

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if _, err := p.DB.Exec(line); err != nil {
			fmt.Println("error:", err)
			continue
		}
		t0 := time.Now()
		d := rev.Commit()
		prev = suite.RunDelta(p.DB, prev, d, opts)
		skipped, rechecked := 0, 0
		for _, r := range prev {
			if r.Skipped {
				skipped++
			} else {
				rechecked++
			}
		}
		fmt.Printf("delta %s: %d rechecked, %d skipped in %v; %s\n",
			d, rechecked, skipped, time.Since(t0).Round(time.Microsecond), check.Summarize(prev))
		for _, r := range prev {
			if !r.Passed() && !r.Skipped {
				status := "VIOLATED"
				if r.Err != nil {
					status = "ERROR: " + r.Err.Error()
				} else {
					status = fmt.Sprintf("VIOLATED (%d rows)", r.Violations.NumRows())
				}
				fmt.Printf("  %-28s %-9s %s\n", r.Invariant.Name, r.Invariant.Ref, status)
			}
		}
		if stats {
			printInvariantStats(prev)
		}
	}
	return sc.Err()
}

// runModelCheck explores the Fig. 4 configuration exhaustively under the
// given assignment (default: both vc4 and fixed) — the baseline the paper
// contrasts the SQL analysis with.
func runModelCheck(p *core.Pipeline, assign, maxMem, spillDir string) error {
	mcOpts := modelcheck.Options{MaxStates: 2000000, CheckCoherence: true, SpillDir: spillDir}
	if maxMem != "" {
		budget, err := segment.ParseBytes(maxMem)
		if err != nil {
			return err
		}
		mcOpts.MemBudget = budget
	}
	tables := sim.Tables{
		D: p.DB.MustTable(protocol.DirectoryTable),
		M: p.DB.MustTable(protocol.MemoryTable),
		C: p.DB.MustTable(protocol.CacheTable),
		N: p.DB.MustTable(protocol.NodeTable),
	}
	names := []string{protocol.AssignVC4, protocol.AssignFixed}
	if assign != "" {
		names = []string{assign}
	}
	for _, name := range names {
		v, err := protocol.BuildAssignment(name)
		if err != nil {
			return err
		}
		sys, err := sim.NewSystem(sim.Config{
			Nodes: 2, ChannelCap: 1,
			ChannelCaps: map[string]int{"VC0": 2},
			Tables:      tables.Map(),
			Assignment:  v,
			MaxSteps:    100000,
		})
		if err != nil {
			return err
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
		rep, err := modelcheck.Explore(sys, mcOpts)
		if err != nil {
			return err
		}
		fmt.Printf("== model checking %s: %d states, %d edges, depth %d (%v)\n",
			name, rep.States, rep.Edges, rep.Depth, rep.Elapsed.Round(1000))
		m := rep.Mem
		fmt.Printf("   memory: %dB/state (%dB resident, %dB spilled in %d/%d segments; index %dB, dict %dB; %d spills, %d faults)\n",
			m.BytesPerState, m.ResidentBytes, m.SpilledBytes,
			m.SpilledSegments, m.Segments, m.IndexBytes, m.DictBytes,
			m.Spills, m.Faults)
		fmt.Printf("   reachable-set hash: %016x\n", rep.StateHash)
		if rep.Violation != nil {
			fmt.Printf("   %s found; counter-example (%d actions):\n", rep.Violation.Kind, len(rep.Violation.Trace))
			for _, a := range rep.Violation.Trace {
				fmt.Printf("     %s\n", a)
			}
		} else {
			fmt.Println("   no violation: deadlock free and coherent in every reachable state")
		}
	}
	return nil
}

// printInvariantStats renders the per-invariant execution profile, most
// expensive query first: where the suite's time goes, which queries scan
// the most rows and which strategies (hash / index / loop joins, index
// scans, morsel parallelism) the executor picked for each.
func printInvariantStats(results []check.Result) {
	sorted := append([]check.Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Elapsed > sorted[j].Elapsed })
	fmt.Printf("  %-28s %-7s %9s %8s %8s %6s %6s %6s %7s\n",
		"invariant", "exec", "elapsed", "scanned", "rows", "hashj", "idxj", "loopj", "morsels")
	for _, r := range sorted {
		st := r.Stats
		exec := "run"
		if r.Skipped {
			exec = "skipped"
		}
		fmt.Printf("  %-28s %-7s %9s %8d %8d %6d %6d %6d %7d\n",
			r.Invariant.Name, exec, r.Elapsed.Round(time.Microsecond),
			st.RowsScanned, st.RowsProduced,
			st.HashJoins, st.IndexJoins, st.LoopJoins, st.Morsels)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cohercheck:", err)
	os.Exit(1)
}
