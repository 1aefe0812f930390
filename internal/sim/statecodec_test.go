package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/protocol"
)

// fig4CodecSystem builds the Figure 4 configuration used by the model
// checker, under the given assignment.
func fig4CodecSystem(t testing.TB, assign string) *System {
	t.Helper()
	v, err := protocol.BuildAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 1,
		ChannelCaps: map[string]int{"VC0": 2},
		Tables:      genTables(t).Map(),
		Assignment:  v,
		MaxSteps:    100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).SetCache(0xB, protocol.CacheM)
	sys.Dir().SetOwner(0xB, NodeID(0))
	sys.Node(1).SetCache(0xA, protocol.CacheM)
	sys.Dir().SetOwner(0xA, NodeID(1))
	sys.Node(0).Script(
		Op{Kind: "previct", Addr: 0xB},
		Op{Kind: "prwrite", Addr: 0xA},
	)
	sys.Node(1).Script(Op{Kind: "previct", Addr: 0xA})
	return sys
}

// TestStateCodecMatchesFingerprint randomly walks the action graph and
// asserts tuple equality is exactly Fingerprint equality — the codec is
// the out-of-core replacement for the fingerprint string, so any
// divergence would corrupt the visited set.
func TestStateCodecMatchesFingerprint(t *testing.T) {
	for _, assign := range []string{protocol.AssignFixed, protocol.AssignVC4} {
		t.Run(assign, func(t *testing.T) {
			root := fig4CodecSystem(t, assign)
			codec := NewStateCodec(root)
			rng := rand.New(rand.NewSource(7))

			type rec struct {
				fp    string
				tuple []uint32
			}
			var seen []rec
			record := func(s *System) {
				tup := codec.Encode(s, nil)
				seen = append(seen, rec{fp: s.Fingerprint(), tuple: tup})
			}
			record(root)
			for walk := 0; walk < 30; walk++ {
				cur := root.Clone()
				for step := 0; step < 40; step++ {
					cands := cur.CandidateActions()
					if len(cands) == 0 {
						break
					}
					a := cands[rng.Intn(len(cands))]
					if _, err := cur.Apply(a); err != nil {
						t.Fatal(err)
					}
					record(cur)
				}
			}
			for i := range seen {
				for j := i + 1; j < len(seen); j++ {
					fpEq := seen[i].fp == seen[j].fp
					tupEq := equalU32(seen[i].tuple, seen[j].tuple)
					if fpEq != tupEq {
						t.Fatalf("state %d vs %d: fingerprint equal=%v but tuple equal=%v\nfp_i=%s\nfp_j=%s",
							i, j, fpEq, tupEq, seen[i].fp, seen[j].fp)
					}
				}
			}
			if len(seen) < 100 {
				t.Fatalf("walks visited only %d states", len(seen))
			}
		})
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStateCodecDecodeRoundTrip randomly walks the action graph and
// decodes every visited tuple into one scratch system, which the
// previous state left dirty. The decoded system must encode back to the
// tuple and fingerprint like the original, and every candidate action
// must do to it what it does to a clone of the original: the same
// changed flag, the same error and the same successor tuple.
func TestStateCodecDecodeRoundTrip(t *testing.T) {
	for _, assign := range []string{protocol.AssignFixed, protocol.AssignVC4} {
		t.Run(assign, func(t *testing.T) {
			root := fig4CodecSystem(t, assign)
			codec := NewStateCodec(root)
			scratch := root.Clone()
			rng := rand.New(rand.NewSource(7))

			checked := 0
			check := func(orig *System) {
				t.Helper()
				tuple := codec.Encode(orig, nil)
				codec.DecodeInto(tuple, scratch)
				if got := codec.Encode(scratch, nil); !equalU32(got, tuple) {
					t.Fatalf("state %d: decoded system encodes to %v, want %v", checked, got, tuple)
				}
				if got, want := scratch.Fingerprint(), orig.Fingerprint(); got != want {
					t.Fatalf("state %d: decoded fingerprint\n%s\nwant\n%s", checked, got, want)
				}
				// The fingerprint leaves out each message's VC.
				for name, ch := range orig.channels {
					if got, want := scratch.channels[name].Snapshot(), ch.Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("state %d: decoded channel %q holds %v, want %v", checked, name, got, want)
					}
				}
				acts := orig.CandidateActions()
				if got := scratch.CandidateActions(); fmt.Sprint(got) != fmt.Sprint(acts) || scratch.Idle() != orig.Idle() {
					t.Fatalf("state %d: decoded actions %v idle=%v, want %v idle=%v",
						checked, got, scratch.Idle(), acts, orig.Idle())
				}
				for _, a := range acts {
					want := orig.Clone()
					wantChanged, wantErr := want.Apply(a)
					codec.DecodeInto(tuple, scratch)
					gotChanged, gotErr := scratch.Apply(a)
					if gotChanged != wantChanged || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("state %d, %v: decoded changed=%v err=%v, original changed=%v err=%v",
							checked, a, gotChanged, gotErr, wantChanged, wantErr)
					}
					if got, want := codec.Encode(scratch, nil), codec.Encode(want, nil); !equalU32(got, want) {
						t.Fatalf("state %d, %v: decoded successor %v, original successor %v", checked, a, got, want)
					}
				}
				checked++
			}

			check(root)
			for walk := 0; walk < 30; walk++ {
				cur := root.Clone()
				for step := 0; step < 40; step++ {
					cands := cur.CandidateActions()
					if len(cands) == 0 {
						break
					}
					if _, err := cur.Apply(cands[rng.Intn(len(cands))]); err != nil {
						t.Fatal(err)
					}
					check(cur)
				}
			}
			if checked < 100 {
				t.Fatalf("walks checked only %d states", checked)
			}
		})
	}
}

// TestStateCodecDecodeConcurrent has several goroutines encode, decode
// and step the same states in different orders through one fresh codec,
// so dictionary interning and the decode memo fill under contention.
// Run it with -race.
func TestStateCodecDecodeConcurrent(t *testing.T) {
	root := fig4CodecSystem(t, protocol.AssignFixed).CloneDetached()
	rng := rand.New(rand.NewSource(11))
	var states []*System
	for walk := 0; walk < 10; walk++ {
		cur := root.Clone()
		for step := 0; step < 30; step++ {
			cands := cur.CandidateActions()
			if len(cands) == 0 {
				break
			}
			if _, err := cur.Apply(cands[rng.Intn(len(cands))]); err != nil {
				t.Fatal(err)
			}
			states = append(states, cur.Clone())
		}
	}

	codec := NewStateCodec(root)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		order := rng.Perm(len(states))
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := root.Clone()
			var tuple, again []uint32
			for _, i := range order {
				tuple = codec.Encode(states[i], tuple)
				codec.DecodeInto(tuple, scratch)
				if again = codec.Encode(scratch, again); !equalU32(again, tuple) {
					t.Errorf("state %d: decoded system encodes to %v, want %v", i, again, tuple)
					return
				}
				for _, a := range scratch.CandidateActions() {
					codec.DecodeInto(tuple, scratch)
					if _, err := scratch.Apply(a); err != nil {
						t.Errorf("state %d, %v: %v", i, a, err)
						return
					}
					again = codec.Encode(scratch, again)
				}
			}
		}()
	}
	wg.Wait()
}

func TestStateCodecActionRoundTrip(t *testing.T) {
	sys := fig4CodecSystem(t, protocol.AssignFixed)
	codec := NewStateCodec(sys)
	actions := []Action{
		{Kind: "issue", Node: 0},
		{Kind: "issue", Node: 13},
		{Kind: "deliver", Chan: "VC0"},
		{Kind: "deliver", Chan: ""},
	}
	for _, a := range actions {
		back := codec.DecodeAction(codec.EncodeAction(a))
		if back != a {
			t.Fatalf("action %+v round-tripped to %+v", a, back)
		}
	}
}

// TestTraceLogOutOfCore runs a traced scenario with a tiny budget and a
// spill directory: the trace must spill, stream back identical to the
// materialized baseline, and leave Result.Trace nil (streaming
// contract).
func TestTraceLogOutOfCore(t *testing.T) {
	run := func(budget int64, spill string) (*System, *Result) {
		t.Helper()
		sys2, err := NewSystem(Config{
			Nodes: 2, ChannelCap: 1,
			ChannelCaps:   map[string]int{"VC0": 2},
			Tables:        genTables(t).Map(),
			Assignment:    fixedAssignment(t),
			MaxSteps:      100000,
			Trace:         true,
			TraceBudget:   budget,
			TraceSpillDir: spill,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys2.Node(0).SetCache(0xB, protocol.CacheM)
		sys2.Dir().SetOwner(0xB, NodeID(0))
		sys2.Node(1).SetCache(0xA, protocol.CacheM)
		sys2.Dir().SetOwner(0xA, NodeID(1))
		sys2.Node(0).Script(
			Op{Kind: "previct", Addr: 0xB},
			Op{Kind: "prwrite", Addr: 0xA},
		)
		sys2.Node(1).Script(Op{Kind: "previct", Addr: 0xA})
		res, err := sys2.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sys2, res
	}

	base, baseRes := run(0, "")
	defer base.Close()
	if len(baseRes.Trace) == 0 {
		t.Fatal("baseline produced no trace")
	}

	spilled, spilledRes := run(512, t.TempDir())
	defer spilled.Close()
	if spilledRes.Trace != nil {
		t.Fatalf("budgeted run materialized %d trace lines; want streaming-only", len(spilledRes.Trace))
	}
	st := spilled.TraceStats()
	if st.Spills == 0 || st.SpilledBytes == 0 {
		t.Fatalf("expected trace spills under a 512B budget, got %+v", st)
	}
	var got []string
	spilled.StreamTrace(func(line string) bool {
		got = append(got, line)
		return true
	})
	if strings.Join(got, "\n") != strings.Join(baseRes.Trace, "\n") {
		t.Fatalf("streamed trace differs from materialized baseline:\nstreamed %d lines, baseline %d", len(got), len(baseRes.Trace))
	}
}

// touchedChecker expands states the way the model checker does — one
// scratch system moved between states with DecodeDiff, and every action
// applied in place, encoded with EncodeTouched and undone with Restore —
// and checks each step against the full Encode and DecodeInto.
type touchedChecker struct {
	codec *StateCodec
	sys   *System // expanded in place
	full  *System // decoded in full at every state: the reference
	prev  []uint32
	edges int // changed edges checked
}

func newTouchedChecker(codec *StateCodec, root *System) *touchedChecker {
	return &touchedChecker{codec: codec, sys: root.Clone(), full: root.Clone()}
}

// sameState reports how s differs from the reference system decoded from
// want, or "" if it does not: its tuple, its fingerprint, and its queued
// messages with their VCs, which the fingerprint leaves out.
func (c *touchedChecker) sameState(s *System, want []uint32, wantFP string) string {
	if got := c.codec.Encode(s, nil); !equalU32(got, want) {
		return fmt.Sprintf("encodes to %v, want %v", got, want)
	}
	if got := s.Fingerprint(); got != wantFP {
		return fmt.Sprintf("fingerprint\n%s\nwant\n%s", got, wantFP)
	}
	for i, ch := range s.chanList {
		if !slices.Equal(ch.q, c.full.chanList[i].q) {
			return fmt.Sprintf("channel %q holds %v, want %v", s.chanNames[i], ch.q, c.full.chanList[i].q)
		}
	}
	return ""
}

// visit moves the scratch system to tuple with DecodeDiff (DecodeInto
// the first time), checks it against a full decode, then expands every
// candidate action and checks each edge: EncodeTouched must equal
// Encode, and Restore must return the parent. It returns the changed
// successors' tuples in candidate order.
func (c *touchedChecker) visit(tuple []uint32) ([][]uint32, error) {
	if c.prev == nil {
		c.codec.DecodeInto(tuple, c.sys)
	} else {
		c.codec.DecodeDiff(c.prev, tuple, c.sys)
	}
	c.prev = tuple
	c.codec.DecodeInto(tuple, c.full)
	fp := c.full.Fingerprint()
	if d := c.sameState(c.sys, tuple, fp); d != "" {
		return nil, fmt.Errorf("after DecodeDiff the system %s", d)
	}
	var succs [][]uint32
	for _, a := range c.sys.CandidateActions() {
		changed, err := c.sys.Apply(a)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", a, err)
		}
		if changed {
			touched := c.codec.EncodeTouched(c.sys, tuple, nil)
			want := c.codec.Encode(c.sys, nil)
			if !equalU32(touched, want) {
				return nil, fmt.Errorf("%v from %v: EncodeTouched %v, Encode %v", a, tuple, touched, want)
			}
			succs = append(succs, want)
			c.edges++
		}
		c.codec.Restore(tuple, c.sys)
		if d := c.sameState(c.sys, tuple, fp); d != "" {
			return nil, fmt.Errorf("%v from %v: after Restore the system %s", a, tuple, d)
		}
	}
	return succs, nil
}

func tupleKey(tuple []uint32) string {
	b := make([]byte, 0, 4*len(tuple))
	for _, code := range tuple {
		b = binary.LittleEndian.AppendUint32(b, code)
	}
	return string(b)
}

// TestStateCodecTouchedMatchesFull checks touched expansion against the
// full codec at every edge of exhaustive searches of the Fig. 4 system
// under both assignments, with three extra prreads (one under the race
// detector), and along random walks over random workloads with direct
// ops, whose three nodes run every op kind (20 seeds, 4 under the race
// detector).
func TestStateCodecTouchedMatchesFull(t *testing.T) {
	type search struct {
		assign                 string
		prreads, states, edges int
	}
	searches := []search{{protocol.AssignFixed, 3, 18351, 51541}, {protocol.AssignVC4, 3, 3209, 6903}}
	seeds := 20
	if raceEnabled {
		searches = []search{{protocol.AssignFixed, 1, 1126, 2597}, {protocol.AssignVC4, 1, 493, 951}}
		seeds = 4
	}
	for _, tc := range searches {
		t.Run(fmt.Sprintf("%s+%dprread", tc.assign, tc.prreads), func(t *testing.T) {
			root := fig4CodecSystem(t, tc.assign)
			for k := 0; k < tc.prreads; k++ {
				root.Node(k % 2).Script(Op{Kind: "prread", Addr: Addr(0x100 + k)})
			}
			codec := NewStateCodec(root)
			c := newTouchedChecker(codec, root)
			rootTuple := codec.Encode(root, nil)
			seen := map[string]bool{tupleKey(rootTuple): true}
			for queue := [][]uint32{rootTuple}; len(queue) > 0; queue = queue[1:] {
				succs, err := c.visit(queue[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range succs {
					if k := tupleKey(s); !seen[k] {
						seen[k] = true
						queue = append(queue, s)
					}
				}
			}
			if len(seen) != tc.states || c.edges != tc.edges {
				t.Fatalf("searched %d states, %d edges; want %d, %d", len(seen), c.edges, tc.states, tc.edges)
			}
		})
	}

	t.Run("random-direct-ops", func(t *testing.T) {
		kinds := map[string]bool{}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			root, err := RandomSystem(genTables(t), fixedAssignment(t), RandomConfig{
				Nodes: 3, Addrs: 2, OpsPerNode: 8, Seed: seed, DirectOps: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range root.nodes {
				for _, op := range n.pendingOp {
					kinds[op.Kind] = true
				}
			}
			codec := NewStateCodec(root)
			c := newTouchedChecker(codec, root)
			rng := rand.New(rand.NewSource(seed))
			tuple := codec.Encode(root, nil)
			for step := 0; step < 5000; step++ {
				succs, err := c.visit(tuple)
				if err != nil {
					t.Fatalf("seed %d, step %d: %v", seed, step, err)
				}
				if len(succs) == 0 {
					break
				}
				tuple = succs[rng.Intn(len(succs))]
			}
			if !c.sys.Idle() {
				t.Fatalf("seed %d: the walk stopped before its scripts drained", seed)
			}
		}
		if !raceEnabled && len(kinds) != 4+len(directOps) {
			t.Fatalf("the walks ran op kinds %v; want all %d", kinds, 4+len(directOps))
		}
	})
}

// TestStateCodecTouchedConcurrent runs touched expansion on four
// goroutines over one fresh codec, each over the same states in its own
// order, so interning and the decode memo fill under contention while
// every scratch system keeps its own marks. Run it with -race.
func TestStateCodecTouchedConcurrent(t *testing.T) {
	root := fig4CodecSystem(t, protocol.AssignFixed).CloneDetached()
	rng := rand.New(rand.NewSource(13))
	var states []*System
	for walk := 0; walk < 10; walk++ {
		cur := root.Clone()
		for step := 0; step < 30; step++ {
			cands := cur.CandidateActions()
			if len(cands) == 0 {
				break
			}
			if _, err := cur.Apply(cands[rng.Intn(len(cands))]); err != nil {
				t.Fatal(err)
			}
			states = append(states, cur.Clone())
		}
	}

	codec := NewStateCodec(root)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		order := rng.Perm(len(states))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newTouchedChecker(codec, root)
			for _, i := range order {
				if _, err := c.visit(codec.Encode(states[i], nil)); err != nil {
					t.Errorf("state %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
