package sim

import (
	"strings"
	"testing"

	"coherdb/internal/protocol"
)

// newDirectSystem builds a 2-node system with generous channels for the
// direct-transaction tests.
func newDirectSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 8, Tables: genTables(t).Map(),
		Assignment: fixedAssignment(t), MaxSteps: 30000, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func runDirect(t *testing.T, sys *System, wantOps int) *Result {
	t.Helper()
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%v\n%s", err, strings.Join(res2trace(sys), "\n"))
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v\n%s", res.Outcome, res.Blockage)
	}
	if res.Stats.OpsCompleted != wantOps {
		t.Fatalf("ops completed = %d, want %d", res.Stats.OpsCompleted, wantOps)
	}
	return res
}

func wantTrace(t *testing.T, res *Result, wants ...string) {
	t.Helper()
	trace := strings.Join(res.Trace, "\n")
	for _, w := range wants {
		if !strings.Contains(trace, w) {
			t.Errorf("trace missing %q", w)
		}
	}
}

func TestIOReadTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "ioread", Addr: 0x1000})
	res := runDirect(t, sys, 1)
	wantTrace(t, res, "ioread", "mread", "iodata", "compl")
	if sys.Dir().BusyCount() != 0 {
		t.Fatal("busy entry leaked")
	}
}

func TestIOWriteTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "iowrite", Addr: 0x1000})
	res := runDirect(t, sys, 1)
	wantTrace(t, res, "iowrite", "mwrite", "mdone", "iocompl", "compl")
}

func TestUncachedTransactions(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(
		Op{Kind: "ucread", Addr: 0x1001},
		Op{Kind: "ucwrite", Addr: 0x1002},
	)
	res := runDirect(t, sys, 2)
	wantTrace(t, res, "ucread", "ucdata", "ucwrite", "uccompl")
}

func TestFetchAddTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "fetchadd", Addr: 0x1003})
	res := runDirect(t, sys, 1)
	// mrmw returns both mdata and mdone; the transaction must traverse
	// the at-dm -> at-m/at-d -> at-c chain.
	wantTrace(t, res, "fetchadd", "mrmw", "mdata", "mdone", "atdata")
}

func TestSyncTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "sync", Addr: 0})
	res := runDirect(t, sys, 1)
	wantTrace(t, res, "sync", "syncack", "compl")
}

func TestInterruptTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "intr", Addr: 0})
	res := runDirect(t, sys, 1)
	// The interrupt is forwarded to the peer node, acknowledged back to
	// home, and the ack is relayed to the requester.
	wantTrace(t, res, "intr(0) dir->node1", "intrack(0) node1->dir", "intrack(0) dir->node0")
}

func TestFlushTransactionInvalidatesSharers(t *testing.T) {
	sys := newDirectSystem(t)
	// Node 1 holds the line shared; node 0 flushes it.
	sys.Node(1).SetCache(0x20, protocol.CacheS)
	sys.Dir().SetShared(0x20, NodeID(1))
	sys.Node(0).Script(Op{Kind: "flush", Addr: 0x20})
	res := runDirect(t, sys, 1)
	wantTrace(t, res, "flush", "sinv", "idone", "flcompl")
	if st, _ := sys.Dir().Entry(0x20); st != protocol.DirI {
		t.Fatalf("directory = %s, want I", st)
	}
	if sys.Node(1).CacheState(0x20) != protocol.CacheI {
		t.Fatal("sharer still holds the line")
	}
}

func TestFlushTransactionDrainsOwner(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(1).SetCache(0x21, protocol.CacheM)
	sys.Dir().SetOwner(0x21, NodeID(1))
	sys.Node(0).Script(Op{Kind: "flush", Addr: 0x21})
	res := runDirect(t, sys, 1)
	// MESI flush: sflush to the owner, its data written back, then done.
	wantTrace(t, res, "sflush", "sdata", "mwrite", "mdone", "flcompl")
	if st, _ := sys.Dir().Entry(0x21); st != protocol.DirI {
		t.Fatalf("directory = %s, want I", st)
	}
}

func TestReadInvTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(1).SetCache(0x22, protocol.CacheS)
	sys.Dir().SetShared(0x22, NodeID(1))
	sys.Node(0).Script(Op{Kind: "readinv", Addr: 0x22})
	res := runDirect(t, sys, 1)
	wantTrace(t, res, "readinv", "sinv", "idone", "data")
	if st, _ := sys.Dir().Entry(0x22); st != protocol.DirI {
		t.Fatalf("directory = %s, want I (readinv leaves nothing cached)", st)
	}
	if sys.Node(0).CacheState(0x22) != protocol.CacheI {
		t.Fatal("readinv must not fill the requester's cache")
	}
}

func TestPrefetchTransaction(t *testing.T) {
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "prefetch", Addr: 0x23})
	res := runDirect(t, sys, 1)
	wantTrace(t, res, "prefetch", "mread", "pfdata")
	if sys.Node(0).CacheState(0x23) != protocol.CacheS {
		t.Fatal("prefetch must fill the cache shared")
	}
	st, sharers := sys.Dir().Entry(0x23)
	if st != protocol.DirSI || len(sharers) != 1 {
		t.Fatalf("directory = %s %v", st, sharers)
	}
	if v := sys.CheckCoherence(); len(v) != 0 {
		t.Fatalf("coherence: %v", v)
	}
}

func TestDirectConflictRetries(t *testing.T) {
	// Two nodes hammer the same I/O line; the busy directory serializes
	// them with retries and both eventually complete.
	sys := newDirectSystem(t)
	sys.Node(0).Script(Op{Kind: "iowrite", Addr: 0x1000})
	sys.Node(1).Script(Op{Kind: "iowrite", Addr: 0x1000})
	res := runDirect(t, sys, 2)
	if res.Stats.Retries == 0 {
		t.Log("note: no retry was needed (interleaving avoided the conflict)")
	}
	if sys.Dir().BusyCount() != 0 {
		t.Fatal("busy entry leaked")
	}
}

func TestRandomWithDirectOpsCoherent(t *testing.T) {
	for _, seed := range []int64{7, 8, 9, 10} {
		sys, err := RandomSystem(genTables(t), fixedAssignment(t), RandomConfig{
			Nodes: 3, Addrs: 3, OpsPerNode: 20, Seed: seed, DirectOps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		universe := NewStateCodec(sys).NumAddrs()
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Outcome != Completed {
			t.Fatalf("seed %d: %v\n%s", seed, res.Outcome, res.Blockage)
		}
		if v := sys.CheckCoherence(); len(v) != 0 {
			t.Fatalf("seed %d: %v", seed, v)
		}
		// Run never reads or clears the codec marks; they must stay
		// bounded by the address universe however long it runs.
		marks := [][]Addr{sys.dir.base().touched}
		for _, n := range sys.nodes {
			marks = append(marks, n.touched)
		}
		for _, m := range marks {
			if len(m) > universe {
				t.Fatalf("seed %d: %d address marks after %d steps, universe %d", seed, len(m), res.Stats.Steps, universe)
			}
		}
	}
}
