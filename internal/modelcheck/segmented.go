package modelcheck

import (
	"fmt"
	"math"
	"time"

	"coherdb/internal/pool"
	"coherdb/internal/segment"
	"coherdb/internal/sim"
)

// The exploration engine: states are fixed-width uint32 code tuples
// (sim.StateCodec) appended to a compressed segment store; membership
// is an exact sharded hash index over that store; the frontier expands
// level-synchronously in parallel rounds on internal/pool with a
// deterministic batch-ordered merge, so state ids follow BFS discovery
// order exactly and no result (states, edges, violations, reachable-set
// hash) depends on the worker count.
//
// Per state the engine retains ~a few dozen compressed bytes (tuple +
// 8B search-tree entry + 16B index slot) where a System clone plus
// fingerprint string costs ~2–4 KiB, and sealed segments spill to disk
// under budget pressure. The tuple is the only representation of a
// state: expansion decodes it into a scratch system, and the search-tree
// store of parents and actions is read only to build counter-example
// traces.

// rootParent marks state 0's parent slot in the search tree store.
const rootParent = math.MaxUint32

// cand is one changed successor produced during parallel expansion,
// in deterministic (state id, action) order.
type cand struct {
	parent int64
	action sim.Action
	tuple  []uint32
	hash   uint64
	seenID int64 // >= 0 when the parallel pre-filter found it visited
}

type segEngine struct {
	opts  Options
	codec *sim.StateCodec
	root  *sim.System

	vstore *segment.Store // state tuples; row id == state id
	tstore *segment.Store // [parent, action code] per state
	idx    *segment.Visited

	rep   *Report
	limit int
}

// Explore runs a breadth-first search over all interleavings of the given
// initial system. The system passed in is not modified. A system whose
// behaviour depends on state the codec does not encode is refused with
// an error wrapping sim.ErrUnencodedState.
func Explore(initial *sim.System, opts Options) (*Report, error) {
	if err := initial.CheckEncodable(); err != nil {
		return nil, fmt.Errorf("modelcheck: cannot explore: %w", err)
	}
	start := time.Now()
	e := newEngine(initial, opts)
	defer e.close()
	segment.Track("modelcheck_visited", e.vstore)
	segment.Track("modelcheck_tree", e.tstore)
	defer segment.Untrack("modelcheck_visited")
	defer segment.Untrack("modelcheck_tree")
	chunk := opts.expandChunk
	if chunk <= 0 {
		chunk = 1024
	}

	finish := func() *Report {
		e.rep.Elapsed = time.Since(start)
		e.fillMemStats()
		return e.rep
	}

	levelLo, levelHi := int64(0), int64(1)
	for depth := 0; levelLo < levelHi; depth++ {
		e.rep.Depth = depth

		// Phase 1: streaming coherence scan over the level's sealed
		// rows — no System, no row materialization, just code compares
		// against the codec's pre-interned M/E/S codes.
		coherMin := int64(-1)
		if opts.CheckCoherence {
			coherMin = e.coherenceScan(levelLo, levelHi)
		}
		expandHi := levelHi
		if coherMin >= 0 {
			// A BFS dequeues (and expands) only the states before
			// the violating one.
			expandHi = coherMin
		}

		// Phase 2: expand in rounds — parallel generation with a
		// deterministic batch-ordered merge, then sequential
		// dedupe/accept so state ids follow BFS discovery order
		// exactly.
		deadlockMin := int64(-1)
		for rlo := levelLo; rlo < expandHi && deadlockMin < 0; rlo += int64(chunk) {
			rhi := rlo + int64(chunk)
			if rhi > expandHi {
				rhi = expandHi
			}
			cands, roundDeadlock, err := e.expandRound(rlo, rhi)
			if err != nil {
				return nil, err
			}
			if roundDeadlock >= 0 {
				deadlockMin = roundDeadlock
			}
			if e.acceptRound(cands, deadlockMin >= 0) {
				return finish(), ErrLimit
			}
		}

		if deadlockMin >= 0 || coherMin >= 0 {
			vid, kind := coherMin, "coherence"
			if deadlockMin >= 0 && (coherMin < 0 || deadlockMin < coherMin) {
				vid, kind = deadlockMin, "deadlock"
			}
			detail := "no enabled action and work remains"
			if kind == "coherence" {
				sys := e.root.Clone()
				e.codec.DecodeInto(e.vstore.Tuple(vid, nil), sys)
				detail = fmt.Sprintf("%v", sys.SafetyViolations())
			}
			e.rep.Violation = &CounterExample{
				Kind:   kind,
				Trace:  e.actionPath(vid),
				Detail: detail,
			}
			return finish(), nil
		}

		levelLo, levelHi = levelHi, e.vstore.Rows()

		// Budget enforcement without a spill directory: stop with
		// ErrBudget instead of silently exceeding the cap.
		if opts.MemBudget > 0 && opts.SpillDir == "" && e.retainedBytes() > opts.MemBudget {
			return finish(), ErrBudget
		}
	}
	return finish(), nil
}

// newEngine sizes the stores, index and codec from opts and records the
// initial system as state 0. The caller closes the engine.
func newEngine(initial *sim.System, opts Options) *segEngine {
	limit := opts.MaxStates
	if limit <= 0 {
		limit = 200000
	}
	shards := opts.shards
	if shards <= 0 {
		shards = 16
	}
	blockRows := opts.blockRows
	if blockRows <= 0 {
		blockRows = 4096
	}
	codec := sim.NewStateCodec(initial)
	// Budget split: the visited tuples dominate, the search tree is a
	// narrow width-2 store; both share the spill directory. The index
	// and codec are accounted against what remains each level.
	var vb, tb int64
	if opts.MemBudget > 0 && opts.SpillDir != "" {
		vb = opts.MemBudget / 2
		tb = opts.MemBudget / 8
	}
	e := &segEngine{
		opts:  opts,
		codec: codec,
		root:  initial.CloneDetached(),
		vstore: segment.NewStore(segment.StoreConfig{
			Width: codec.Width(), BlockRows: blockRows,
			Budget: vb, SpillDir: opts.SpillDir,
		}),
		tstore: segment.NewStore(segment.StoreConfig{
			Width: 2, BlockRows: blockRows,
			Budget: tb, SpillDir: opts.SpillDir,
		}),
		rep:   &Report{},
		limit: limit,
	}
	e.idx = segment.NewVisited(e.vstore, shards)

	rootTuple := codec.Encode(e.root, nil)
	rootHash := segment.HashTuple(rootTuple)
	id := e.vstore.Append(rootTuple)
	e.idx.Insert(e.idx.ShardOf(rootHash), rootHash, id)
	e.tstore.Append([]uint32{rootParent, 0})
	e.rep.States = 1
	e.rep.StateHash ^= codec.ValueHash(rootTuple)
	return e
}

func (e *segEngine) close() {
	e.vstore.Close()
	e.tstore.Close()
}

// retainedBytes sums the engine's residency: segment stores, visited
// index and codec (dictionary and decode memo).
func (e *segEngine) retainedBytes() int64 {
	vs, ts := e.vstore.Stats(), e.tstore.Stats()
	return vs.ResidentBytes + ts.ResidentBytes + e.idx.Bytes() + e.codec.Bytes()
}

// coherenceScan streams the level's tuples and returns the lowest
// state id violating the MESI single-writer property (-1 if none):
// per address, more than one owner (M/E) or an owner alongside a
// sharer (S) across nodes — exactly sim.SafetyViolations, evaluated on
// raw codes without materializing a System.
func (e *segEngine) coherenceScan(lo, hi int64) int64 {
	nodes, addrs := e.codec.NumNodes(), e.codec.NumAddrs()
	found := int64(-1)
	e.vstore.Stream(lo, hi, func(id int64, tuple []uint32) bool {
		for a := 0; a < addrs; a++ {
			owners, sharers := 0, 0
			for n := 0; n < nodes; n++ {
				code := tuple[e.codec.CacheCol(n, a)]
				if e.codec.IsOwnerCode(code) {
					owners++
				} else if e.codec.IsSharerCode(code) {
					sharers++
				}
			}
			if owners > 1 || (owners == 1 && sharers > 0) {
				found = id
				return false
			}
		}
		return true
	})
	return found
}

// expandRound expands states [rlo, rhi) in parallel and returns their
// changed successors in deterministic order (by state id, then
// candidate-action order — BFS discovery order),
// plus the lowest deadlocked state id (-1 if none).
//
// The round's tuples are read once, in order, with Stream, which reads
// spilled segments without caching them. Each batch keeps one scratch
// system and moves it from state to state, decoding the batch's first
// tuple in full and only the columns that differ after that
// (sim.StateCodec.DecodeDiff). A state's idle flag and candidate actions
// are read before its first action; each action then costs what it
// changed: Apply, EncodeTouched over the parent's tuple, and Restore
// back to the parent.
func (e *segEngine) expandRound(rlo, rhi int64) ([]cand, int64, error) {
	n := int(rhi - rlo)
	w := e.codec.Width()
	tuples := make([]uint32, 0, n*w)
	e.vstore.Stream(rlo, rhi, func(_ int64, t []uint32) bool {
		tuples = append(tuples, t...)
		return true
	})
	const morsel = 8
	batches := pool.Batches(n, morsel)
	perBatch := make([][]cand, batches)
	deadlocks := make([]int64, batches)
	for i := range deadlocks {
		deadlocks[i] = -1
	}

	_, err := pool.Shared().Each(e.opts.Workers, n, morsel, func(batch, blo, bhi int) error {
		sys := e.root.Clone()
		var prev, scratch, probe []uint32
		var out []cand
		for i := blo; i < bhi; i++ {
			id := rlo + int64(i)
			tuple := tuples[i*w : (i+1)*w]
			if prev == nil {
				e.codec.DecodeInto(tuple, sys)
			} else {
				e.codec.DecodeDiff(prev, tuple, sys)
			}
			prev = tuple
			idle := sys.Idle()
			progressed := false
			for _, a := range sys.CandidateActions() {
				changed, err := sys.Apply(a)
				if err != nil {
					return err
				}
				if changed {
					scratch = e.codec.EncodeTouched(sys, tuple, scratch)
				}
				e.codec.Restore(tuple, sys)
				if !changed {
					continue
				}
				progressed = true
				c := cand{
					parent: id,
					action: a,
					tuple:  append([]uint32(nil), scratch...),
					hash:   segment.HashTuple(scratch),
					seenID: -1,
				}
				// Pre-filter against the frozen index: inserts happen
				// only between rounds, so a hit here is definitive.
				var found bool
				var fid int64
				fid, found, probe = e.idx.Lookup(e.idx.ShardOf(c.hash), c.hash, scratch, probe)
				if found {
					c.seenID = fid
				}
				out = append(out, c)
			}
			if !progressed && !idle {
				if deadlocks[batch] < 0 || id < deadlocks[batch] {
					deadlocks[batch] = id
				}
			}
		}
		perBatch[batch] = out
		return nil
	})
	if err != nil {
		return nil, -1, err
	}
	var cands []cand
	for _, b := range perBatch {
		cands = append(cands, b...)
	}
	deadlockMin := int64(-1)
	for _, d := range deadlocks {
		if d >= 0 && (deadlockMin < 0 || d < deadlockMin) {
			deadlockMin = d
		}
	}
	return cands, deadlockMin, nil
}

// acceptRound merges one round's candidates sequentially: count edges,
// dedupe (pre-filter verdicts are definitive; fresh candidates probe
// again to catch same-round acceptances), and append accepted tuples to
// the stores and index. Returns true when MaxStates is exceeded. When
// discard is set (a deadlock ends the level) successors are counted but
// not kept: the search stops at the deadlocked state.
func (e *segEngine) acceptRound(cands []cand, discard bool) bool {
	var probe []uint32
	tree := make([]uint32, 2)
	for i := range cands {
		c := &cands[i]
		e.rep.Edges++
		if discard {
			continue
		}
		if c.seenID >= 0 {
			continue
		}
		_, found, p := e.idx.Lookup(e.idx.ShardOf(c.hash), c.hash, c.tuple, probe)
		probe = p
		if found {
			continue
		}
		id := e.vstore.Append(c.tuple)
		e.idx.Insert(e.idx.ShardOf(c.hash), c.hash, id)
		tree[0] = uint32(c.parent)
		tree[1] = e.codec.EncodeAction(c.action)
		e.tstore.Append(tree)
		e.rep.States++
		e.rep.StateHash ^= e.codec.ValueHash(c.tuple)
		if e.rep.States > e.limit {
			return true
		}
	}
	return false
}

// actionPath rebuilds the counter-example action sequence from the root
// to state id from the width-2 search-tree store.
func (e *segEngine) actionPath(id int64) []sim.Action {
	var codes []uint32
	var buf []uint32
	for id > 0 {
		buf = e.tstore.Tuple(id, buf)
		codes = append(codes, buf[1])
		if buf[0] == rootParent {
			break
		}
		id = int64(buf[0])
	}
	out := make([]sim.Action, len(codes))
	for i := range codes {
		out[i] = e.codec.DecodeAction(codes[len(codes)-1-i])
	}
	return out
}

func (e *segEngine) fillMemStats() {
	vs, ts := e.vstore.Stats(), e.tstore.Stats()
	m := &e.rep.Mem
	m.ResidentBytes = vs.ResidentBytes + ts.ResidentBytes
	m.SpilledBytes = vs.SpilledBytes + ts.SpilledBytes
	m.Segments = vs.Segments + ts.Segments
	m.SpilledSegments = vs.SpilledSegs + ts.SpilledSegs
	m.Spills = vs.Spills + ts.Spills
	m.Faults = vs.Faults + ts.Faults
	m.IndexBytes = e.idx.Bytes()
	m.DictBytes = e.codec.Bytes()
	if e.rep.States > 0 {
		total := m.ResidentBytes + m.SpilledBytes + m.IndexBytes + m.DictBytes
		m.BytesPerState = total / int64(e.rep.States)
	}
}
