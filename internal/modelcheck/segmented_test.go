package modelcheck

import (
	"errors"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/sim"
)

// exploreAgainstOracle runs the oracle and Explore with opts over the
// same initial system and returns both reports. The oracle sees only the
// options that change what a search finds: MaxStates and CheckCoherence.
func exploreAgainstOracle(t *testing.T, sys *sim.System, opts Options) (*Report, *Report) {
	t.Helper()
	want, err := exploreOracle(sys, Options{MaxStates: opts.MaxStates, CheckCoherence: opts.CheckCoherence})
	if err != nil {
		t.Fatalf("oracle explore: %v", err)
	}
	got, err := Explore(sys, opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return want, got
}

// requireCleanEquivalent asserts the strong contract for violation-free
// runs: identical state count, edge count, depth and reachable-set hash.
func requireCleanEquivalent(t *testing.T, want, got *Report) {
	t.Helper()
	if want.Violation != nil || got.Violation != nil {
		t.Fatalf("unexpected violation: oracle=%+v explore=%+v", want.Violation, got.Violation)
	}
	if want.States != got.States || want.Edges != got.Edges || want.Depth != got.Depth {
		t.Fatalf("oracle (states=%d edges=%d depth=%d) != explore (states=%d edges=%d depth=%d)",
			want.States, want.Edges, want.Depth, got.States, got.Edges, got.Depth)
	}
	if want.StateHash != got.StateHash {
		t.Fatalf("reachable-set hash mismatch: oracle=%016x explore=%016x",
			want.StateHash, got.StateHash)
	}
	if want.StateHash == 0 {
		t.Fatal("StateHash not computed")
	}
}

func TestSegmentedCleanEquivalence(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	want, got := exploreAgainstOracle(t, sys, Options{MaxStates: 500000, CheckCoherence: true})
	requireCleanEquivalent(t, want, got)
	if got.Mem.BytesPerState <= 0 {
		t.Fatalf("BytesPerState = %d", got.Mem.BytesPerState)
	}
	if got.Mem.BytesPerState >= want.Mem.BytesPerState {
		t.Fatalf("bytes/state %d not below the oracle's %d",
			got.Mem.BytesPerState, want.Mem.BytesPerState)
	}
	t.Logf("states=%d edges=%d depth=%d hash=%016x; bytes/state oracle=%d explore=%d",
		got.States, got.Edges, got.Depth, got.StateHash,
		want.Mem.BytesPerState, got.Mem.BytesPerState)
}

func TestSegmentedCleanEquivalenceParallelAndSharded(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"workers1", Options{Workers: 1}},
		{"shards1_chunk7", Options{shards: 1, expandChunk: 7}},
		{"shards64_block32", Options{shards: 64, blockRows: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.MaxStates = 500000
			o.CheckCoherence = true
			want, got := exploreAgainstOracle(t, sys, o)
			requireCleanEquivalent(t, want, got)
		})
	}
}

func TestSegmentedSpilledEquivalence(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	want, got := exploreAgainstOracle(t, sys, Options{
		MaxStates:      500000,
		CheckCoherence: true,
		MemBudget:      8 << 10, // tiny: forces spilling and faults
		SpillDir:       t.TempDir(),
		blockRows:      32,
	})
	requireCleanEquivalent(t, want, got)
	if got.Mem.Spills == 0 || got.Mem.SpilledBytes == 0 {
		t.Fatalf("expected spills under an 8KiB budget, got %+v", got.Mem)
	}
	t.Logf("spilled run: %d spills, %d faults, resident=%dB spilled=%dB",
		got.Mem.Spills, got.Mem.Faults,
		got.Mem.ResidentBytes, got.Mem.SpilledBytes)
}

func TestSegmentedDeadlockEquivalence(t *testing.T) {
	sys := buildSystem(t, protocol.AssignVC4, map[string]int{"VC0": 2}, figure4Setup)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"spilled", Options{MemBudget: 64 << 10, blockRows: 64}},
		{"chunked", Options{expandChunk: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.MaxStates = 500000
			if o.MemBudget > 0 {
				o.SpillDir = t.TempDir()
			}
			want, got := exploreAgainstOracle(t, sys, o)
			requireSameViolation(t, want, got)
		})
	}
}

// requireSameViolation asserts the contract for violating runs: the
// same kind and the same counter-example trace. State and edge counts
// may differ, because Explore stops at a round boundary, not at the
// violating state.
func requireSameViolation(t *testing.T, want, got *Report) {
	t.Helper()
	if want.Violation == nil || got.Violation == nil {
		t.Fatalf("violation missing: oracle=%+v explore=%+v", want.Violation, got.Violation)
	}
	if want.Violation.Kind != got.Violation.Kind {
		t.Fatalf("kind: oracle=%s explore=%s", want.Violation.Kind, got.Violation.Kind)
	}
	if len(want.Violation.Trace) != len(got.Violation.Trace) {
		t.Fatalf("trace length: oracle=%d explore=%d",
			len(want.Violation.Trace), len(got.Violation.Trace))
	}
	for i := range want.Violation.Trace {
		if want.Violation.Trace[i] != got.Violation.Trace[i] {
			t.Fatalf("trace[%d]: oracle=%v explore=%v",
				i, want.Violation.Trace[i], got.Violation.Trace[i])
		}
	}
}

// coherenceAtRoot seeds two modified copies of the same line, so
// coherence is violated in the initial state.
func coherenceAtRoot(s *sim.System) {
	s.Node(0).SetCache(1, protocol.CacheM)
	s.Node(1).SetCache(1, protocol.CacheM)
	s.Dir().SetOwner(1, sim.NodeID(0))
}

func TestSegmentedCoherenceViolationEquivalence(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, nil, coherenceAtRoot)
	want, got := exploreAgainstOracle(t, sys, Options{CheckCoherence: true})
	requireSameViolation(t, want, got)
	if got.Violation.Kind != "coherence" || len(got.Violation.Trace) != 0 {
		t.Fatalf("want coherence at the root with empty trace, got %+v", got.Violation)
	}
}

func TestSegmentedStateLimit(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	for _, tc := range []struct {
		name    string
		explore func(*sim.System, Options) (*Report, error)
	}{{"oracle", exploreOracle}, {"explore", Explore}} {
		rep, err := tc.explore(sys, Options{MaxStates: 10})
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: err = %v, want ErrLimit", tc.name, err)
		}
		if rep.States != 11 {
			t.Fatalf("%s: states at limit = %d, want limit+1", tc.name, rep.States)
		}
	}
}

func TestSegmentedBudgetWithoutSpillDir(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, figure4Setup)
	_, err := Explore(sys, Options{MemBudget: 4 << 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// The oracle hits the same wall far earlier (its states cost ~100x
	// more), which is the whole point of the segment store.
	_, err = exploreOracle(sys, Options{MemBudget: 4 << 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("oracle err = %v, want ErrBudget", err)
	}
}

func TestSegmentedLeavesInitialUntouched(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, nil, figure4Setup)
	before := sys.Fingerprint()
	if _, err := Explore(sys, Options{CheckCoherence: true}); err != nil {
		t.Fatal(err)
	}
	if sys.Fingerprint() != before {
		t.Fatal("Explore mutated the initial system")
	}
}

// matrixWorkloads are the generated-controller workloads the
// equivalence matrix and the frozen golden cover.
var matrixWorkloads = []struct {
	name  string
	setup func(*sim.System)
}{
	{"read", func(s *sim.System) {
		s.Node(0).Script(sim.Op{Kind: "prread", Addr: 1})
	}},
	{"read_read", func(s *sim.System) {
		s.Node(0).Script(sim.Op{Kind: "prread", Addr: 1})
		s.Node(1).Script(sim.Op{Kind: "prread", Addr: 1})
	}},
	{"write_read", func(s *sim.System) {
		s.Node(0).Script(sim.Op{Kind: "prwrite", Addr: 1})
		s.Node(1).Script(sim.Op{Kind: "prread", Addr: 1})
	}},
	{"evict_cross", figure4Setup},
}

// TestSegmentedWorkloadMatrix sweeps the generated-controller workloads:
// every one must produce the oracle's reachable-set fingerprint.
func TestSegmentedWorkloadMatrix(t *testing.T) {
	for _, w := range matrixWorkloads {
		t.Run(w.name, func(t *testing.T) {
			sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, w.setup)
			want, got := exploreAgainstOracle(t, sys,
				Options{MaxStates: 500000, CheckCoherence: true, expandChunk: 16})
			requireCleanEquivalent(t, want, got)
		})
	}
}
