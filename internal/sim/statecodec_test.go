package sim

import (
	"fmt"
	"math/rand"
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
