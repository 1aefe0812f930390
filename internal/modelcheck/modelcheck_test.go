package modelcheck

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/hwmap"
	"coherdb/internal/protocol"
	"coherdb/internal/sim"
	"coherdb/internal/sqlmini"
)

var (
	tabOnce sync.Once
	tabVal  sim.Tables
	tabErr  error
)

func genTables(t testing.TB) sim.Tables {
	t.Helper()
	tabOnce.Do(func() {
		db := sqlmini.NewDB()
		if _, tabErr = protocol.GenerateAllOpts(db, constraint.Options{}); tabErr != nil {
			return
		}
		tabVal = sim.Tables{
			D: db.MustTable(protocol.DirectoryTable),
			M: db.MustTable(protocol.MemoryTable),
			C: db.MustTable(protocol.CacheTable),
			N: db.MustTable(protocol.NodeTable),
		}
	})
	if tabErr != nil {
		t.Fatal(tabErr)
	}
	return tabVal
}

func buildSystem(t testing.TB, assignName string, caps map[string]int, setup func(*sim.System)) *sim.System {
	t.Helper()
	v, err := protocol.BuildAssignment(assignName)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(sim.Config{
		Nodes:       2,
		ChannelCap:  1,
		ChannelCaps: caps,
		Tables:      genTables(t).Map(),
		Assignment:  v,
		MaxSteps:    100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	setup(sys)
	return sys
}

// figure4Setup recreates the Fig. 4 initial state without choreography:
// the model checker explores all interleavings, so no delays are needed.
func figure4Setup(s *sim.System) {
	const lineA, lineB = sim.Addr(0xA), sim.Addr(0xB)
	s.Node(0).SetCache(lineB, protocol.CacheM)
	s.Dir().SetOwner(lineB, sim.NodeID(0))
	s.Node(1).SetCache(lineA, protocol.CacheM)
	s.Dir().SetOwner(lineA, sim.NodeID(1))
	s.Node(0).Script(
		sim.Op{Kind: "previct", Addr: lineB},
		sim.Op{Kind: "prwrite", Addr: lineA},
	)
	s.Node(1).Script(sim.Op{Kind: "previct", Addr: lineA})
}

// withPrreads is figure4Setup plus n prread operations on fresh lines,
// alternating between the nodes: the widened Fig. 4 workload of the
// state-explosion benchmarks.
func withPrreads(n int) func(*sim.System) {
	return func(s *sim.System) {
		figure4Setup(s)
		for k := 0; k < n; k++ {
			s.Node(k % 2).Script(sim.Op{Kind: "prread", Addr: sim.Addr(0x100 + k)})
		}
	}
}

func TestExploreSimpleReadIsClean(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, func(s *sim.System) {
		s.Node(0).Script(sim.Op{Kind: "prread", Addr: 1})
	})
	rep, err := Explore(sys, Options{CheckCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("violation: %+v", rep.Violation)
	}
	if rep.States < 5 {
		t.Fatalf("states = %d, suspiciously few", rep.States)
	}
}

func TestExploreFindsFigure4Deadlock(t *testing.T) {
	// A3: the model checker finds the §4.2 deadlock by exhaustive
	// interleaving — no slow-memory choreography required.
	sys := buildSystem(t, protocol.AssignVC4, map[string]int{"VC0": 2}, figure4Setup)
	rep, err := Explore(sys, Options{MaxStates: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil || rep.Violation.Kind != "deadlock" {
		t.Fatalf("deadlock not found in %d states", rep.States)
	}
	if len(rep.Violation.Trace) == 0 {
		t.Fatal("no counter-example trace")
	}
	t.Logf("deadlock at depth %d after %d states, %d edges (%.1fms)",
		len(rep.Violation.Trace), rep.States, rep.Edges,
		float64(rep.Elapsed.Microseconds())/1000)
}

func TestExploreFixedAssignmentDeadlockFree(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	rep, err := Explore(sys, Options{MaxStates: 500000, CheckCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("violation under fixed assignment: %+v", rep.Violation)
	}
	t.Logf("exhausted %d states, %d edges, depth %d", rep.States, rep.Edges, rep.Depth)
}

func TestExploreStateLimit(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	_, err := Explore(sys, Options{MaxStates: 10})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestExploreLeavesInitialUntouched(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, nil, func(s *sim.System) {
		s.Node(0).Script(sim.Op{Kind: "prread", Addr: 1})
	})
	before := sys.Fingerprint()
	if _, err := Explore(sys, Options{}); err != nil {
		t.Fatal(err)
	}
	if sys.Fingerprint() != before {
		t.Fatal("Explore mutated the initial system")
	}
}

// TestExploreRefusesUnencodedState covers each setting under which a
// system's behaviour depends on state the codec does not encode: Explore
// must refuse it with sim.ErrUnencodedState and name the setting,
// instead of merging states that behave differently.
func TestExploreRefusesUnencodedState(t *testing.T) {
	for _, tc := range []struct {
		name, setting string
		config        func(*sim.Config)
		setup         func(*sim.System)
	}{
		{name: "max_retries", setting: "MaxRetries 3",
			config: func(c *sim.Config) { c.MaxRetries = 3 }},
		{name: "mem_latency", setting: "MemLatency 2",
			config: func(c *sim.Config) { c.MemLatency = 2 }},
		{name: "channel_latency", setting: "latency 1 on channel VC0",
			config: func(c *sim.Config) { c.ChannelLatency = map[string]int{"VC0": 1} }},
		{name: "delayed_op", setting: "delayed to step 5",
			setup: func(s *sim.System) { s.Node(1).Script(sim.Op{Kind: "prread", Addr: 1, Delay: 5}) }},
		{name: "implementation_directory", setting: "Mapping",
			config: func(c *sim.Config) {
				m, err := hwmap.Partition(sqlmini.NewDB(), genTables(t).D)
				if err != nil {
					t.Fatal(err)
				}
				c.Mapping = m
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := protocol.BuildAssignment(protocol.AssignFixed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{
				Nodes: 2, ChannelCap: 1,
				Tables:     genTables(t).Map(),
				Assignment: v,
				MaxSteps:   100000,
			}
			if tc.config != nil {
				tc.config(&cfg)
			}
			sys, err := sim.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.Node(0).Script(sim.Op{Kind: "prread", Addr: 1})
			if tc.setup != nil {
				tc.setup(sys)
			}
			rep, err := Explore(sys, Options{})
			if !errors.Is(err, sim.ErrUnencodedState) || rep != nil {
				t.Fatalf("Explore = %v, %v; want nil, an error wrapping sim.ErrUnencodedState", rep, err)
			}
			if !strings.Contains(err.Error(), tc.setting) {
				t.Fatalf("error %q does not name %q", err, tc.setting)
			}
		})
	}
}

func TestCloneAndFingerprint(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, nil, figure4Setup)
	c := sys.Clone()
	if c.Fingerprint() != sys.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	// Progress the clone; the original must not change.
	acts := c.CandidateActions()
	if len(acts) == 0 {
		t.Fatal("no candidate actions")
	}
	changed := false
	for _, a := range acts {
		ch, err := c.Apply(a)
		if err != nil {
			t.Fatal(err)
		}
		if ch {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("no action progressed")
	}
	if c.Fingerprint() == sys.Fingerprint() {
		t.Fatal("apply did not change the fingerprint")
	}
}

func TestActionStringAndErrors(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, nil, func(*sim.System) {})
	if (sim.Action{Kind: "issue", Node: 1}).String() != "issue@node1" {
		t.Fatal("action rendering")
	}
	if (sim.Action{Kind: "deliver", Chan: ""}).String() != "deliver@internal" {
		t.Fatal("internal action rendering")
	}
	if _, err := sys.Apply(sim.Action{Kind: "deliver", Chan: "nosuch"}); err == nil {
		t.Fatal("unknown channel must error")
	}
	if _, err := sys.Apply(sim.Action{Kind: "issue", Node: 99}); err == nil {
		t.Fatal("unknown node must error")
	}
	if _, err := sys.Apply(sim.Action{Kind: "zap"}); err == nil {
		t.Fatal("unknown kind must error")
	}
}
