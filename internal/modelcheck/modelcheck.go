// Package modelcheck is an explicit-state model checker over the
// table-driven protocol: it explores every scheduling interleaving of a
// simulated system breadth-first, keeping each visited state as a
// compressed code tuple (see segmented.go), and checks deadlock freedom
// and coherence safety in every reachable state.
//
// It is the baseline the paper discusses (§4.2: "Model checkers based on
// formal approaches... can detect such deadlocks. However, to use these
// tools, the controller tables need to be extensively abstracted to avoid
// the state explosion problem"): on small configurations it finds the same
// deadlocks as the SQL analysis; its state count explodes with the workload
// while the VCG analysis cost stays flat.
package modelcheck

import (
	"errors"
	"time"

	"coherdb/internal/sim"
)

// ErrLimit is returned when exploration exceeds the state budget.
var ErrLimit = errors.New("modelcheck: state limit exceeded")

// ErrBudget is returned when exploration exceeds the memory budget and
// has no spill directory to grow into.
var ErrBudget = errors.New("modelcheck: memory budget exceeded")

// Options tunes the search.
type Options struct {
	// MaxStates caps exploration; 0 means 200000.
	MaxStates int
	// CheckCoherence verifies MESI safety in every state.
	CheckCoherence bool
	// MemBudget caps retained bytes: compressed segments, visited index
	// and codec dictionary. Under pressure sealed segments spill to
	// SpillDir; with no SpillDir the search stops with ErrBudget at the
	// end of the level that exceeded it. 0 = unlimited.
	MemBudget int64
	// SpillDir is where sealed segments spill under MemBudget pressure.
	SpillDir string
	// Workers bounds parallel frontier expansion (0 = all pool workers).
	Workers int

	// Deprecated: Segmented is ignored. Every exploration runs the one
	// out-of-core engine.
	Segmented bool
	// Deprecated: HashStates is ignored. Report.StateHash is always
	// computed.
	HashStates bool

	// shards is the visited-index shard count (rounded up to a power of
	// two; 0 means 16).
	shards int
	// expandChunk is how many frontier states one parallel expansion
	// round covers; it bounds transient per-round memory (0 = 1024).
	expandChunk int
	// blockRows is the segment seal threshold (0 = 4096).
	blockRows int
}

// MemStats is the memory accounting of one exploration.
type MemStats struct {
	// ResidentBytes is retained in-memory state: compressed segments
	// plus unsealed tails.
	ResidentBytes int64
	// SpilledBytes / Segments / SpilledSegments / Spills / Faults
	// describe the segment stores.
	SpilledBytes    int64
	Segments        int64
	SpilledSegments int64
	Spills          int64
	Faults          int64
	// IndexBytes is the sharded visited index; DictBytes the codec's
	// dictionary and decode memo.
	IndexBytes int64
	DictBytes  int64
	// BytesPerState is total retained+spilled bytes over states.
	BytesPerState int64

	// Deprecated: FrontierBytes is always zero. Every state is expanded
	// by decoding its stored tuple, so no frontier systems are kept.
	FrontierBytes int64
	// Deprecated: Replays is always zero. No state is rebuilt by
	// replaying its action path from the root.
	Replays int64
}

// CounterExample is a path from the initial state to a bad state.
type CounterExample struct {
	// Kind is "deadlock" or "coherence".
	Kind string
	// Trace is the action sequence leading to the bad state.
	Trace []sim.Action
	// Detail describes the violation.
	Detail string
}

// Report is the outcome of one exploration.
type Report struct {
	States    int
	Edges     int
	Depth     int
	Elapsed   time.Duration
	Violation *CounterExample
	// StateHash is the order-insensitive XOR of the value-level hashes
	// of every reached state: two explorations reached the same set iff
	// the hashes match. It is independent of dictionary code
	// assignment, so it compares across runs, options and processes.
	StateHash uint64
	// Mem is the exploration's memory accounting.
	Mem MemStats
}
