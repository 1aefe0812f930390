package modelcheck

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"coherdb/internal/protocol"
	"coherdb/internal/sim"
)

// The oracle is the plain in-memory breadth-first search the engine
// replaced: one state dequeued at a time, a System clone per state and a
// fingerprint-keyed visited map. It is slow and memory-hungry, but
// obviously right, so every engine variant (workers, shards, chunks,
// blocks, spilling) is checked against it: identical states, edges,
// depth and StateHash on clean runs; identical violation kind and trace
// on violating ones.

// node is one explored state; parent/action record the BFS tree for
// counter-example reconstruction.
type node struct {
	sys    *sim.System
	parent int
	action sim.Action
	depth  int
}

// exploreOracle runs a breadth-first search over all interleavings of
// the given initial system, honouring MaxStates, CheckCoherence and
// MemBudget (retained clones + fingerprints; ErrBudget past it). The
// system passed in is not modified.
func exploreOracle(initial *sim.System, opts Options) (*Report, error) {
	limit := opts.MaxStates
	if limit <= 0 {
		limit = 200000
	}
	start := time.Now()
	rep := &Report{}
	var retained int64
	finish := func() *Report {
		rep.Elapsed = time.Since(start)
		rep.Mem.ResidentBytes = retained
		if rep.States > 0 {
			rep.Mem.BytesPerState = retained / int64(rep.States)
		}
		return rep
	}
	codec := sim.NewStateCodec(initial)
	var scratch []uint32
	hash := func(s *sim.System) {
		scratch = codec.Encode(s, scratch)
		rep.StateHash ^= codec.ValueHash(scratch)
	}
	rootFP := initial.Fingerprint()
	seen := map[string]bool{rootFP: true}
	all := []node{{sys: initial.Clone(), parent: -1}}
	queue := []int{0}
	rep.States = 1
	retained += all[0].sys.ApproxBytes() + int64(len(rootFP)) + seenEntryBytes
	hash(all[0].sys)

	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		cur := all[idx]
		if cur.depth > rep.Depth {
			rep.Depth = cur.depth
		}
		if opts.CheckCoherence {
			if v := cur.sys.SafetyViolations(); len(v) > 0 {
				rep.Violation = &CounterExample{
					Kind:   "coherence",
					Trace:  traceOf(all, idx),
					Detail: fmt.Sprintf("%v", v),
				}
				return finish(), nil
			}
		}
		progressed := false
		for _, a := range cur.sys.CandidateActions() {
			succ := cur.sys.Clone()
			changed, err := succ.Apply(a)
			if err != nil {
				return nil, err
			}
			if !changed {
				continue
			}
			progressed = true
			rep.Edges++
			fp := succ.Fingerprint()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			rep.States++
			if rep.States > limit {
				return finish(), ErrLimit
			}
			hash(succ)
			retained += succ.ApproxBytes() + int64(len(fp)) + seenEntryBytes
			if opts.MemBudget > 0 && retained > opts.MemBudget {
				return finish(), ErrBudget
			}
			all = append(all, node{sys: succ, parent: idx, action: a, depth: cur.depth + 1})
			queue = append(queue, len(all)-1)
		}
		if !progressed && !cur.sys.Idle() {
			rep.Violation = &CounterExample{
				Kind:   "deadlock",
				Trace:  traceOf(all, idx),
				Detail: "no enabled action and work remains",
			}
			return finish(), nil
		}
	}
	return finish(), nil
}

// seenEntryBytes approximates the map-entry overhead of one visited
// fingerprint in the oracle (bucket slot + string header).
const seenEntryBytes = 64

// traceOf rebuilds the action path from the root to all[idx].
func traceOf(all []node, idx int) []sim.Action {
	var rev []sim.Action
	for idx >= 0 && all[idx].parent >= 0 {
		rev = append(rev, all[idx].action)
		idx = all[idx].parent
	}
	out := make([]sim.Action, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// oracleStatesAt1MiB is how many states the oracle holds at a 1 MiB
// budget on the Fig. 4 fixed system with four extra prread operations
// before ErrBudget: the in-memory engine's figure in BENCH_9/BENCH_10
// and EXPERIMENTS X1. BenchmarkStateExplore's ≥100× floor is measured
// against the same number.
const oracleStatesAt1MiB = 219

func TestOracleStatesAt1MiB(t *testing.T) {
	sys := buildSystem(t, protocol.AssignFixed, map[string]int{"VC0": 2}, withPrreads(4))
	rep, err := exploreOracle(sys, Options{MaxStates: 2000000, CheckCoherence: true, MemBudget: 1 << 20})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if rep.States != oracleStatesAt1MiB {
		t.Fatalf("oracle held %d states at 1 MiB, want %d", rep.States, oracleStatesAt1MiB)
	}
}
