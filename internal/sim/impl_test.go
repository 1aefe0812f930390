package sim

import (
	"strings"
	"sync"
	"testing"

	"coherdb/internal/hwmap"
	"coherdb/internal/protocol"
	"coherdb/internal/sqlmini"
)

var (
	mapOnce sync.Once
	mapVal  *hwmap.Mapping
	mapErr  error
)

func implMapping(t testing.TB) *hwmap.Mapping {
	t.Helper()
	mapOnce.Do(func() {
		db := sqlmini.NewDB()
		mapVal, mapErr = hwmap.Partition(db, genTables(t).D)
	})
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	return mapVal
}

func implSystem(t *testing.T, updqCap int) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Nodes: 3, ChannelCap: 8, Tables: genTables(t).Map(),
		Assignment: fixedAssignment(t), Mapping: implMapping(t),
		ImplUpdQueueCap: updqCap, MaxSteps: 60000, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestImplSimpleReadMiss(t *testing.T) {
	sys := implSystem(t, 0)
	sys.Node(0).Script(Op{Kind: "prread", Addr: 1})
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%v\n%s", err, strings.Join(res2trace(sys), "\n"))
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if sys.Node(0).CacheState(1) != protocol.CacheS {
		t.Fatalf("cache = %s", sys.Node(0).CacheState(1))
	}
	st, sharers := sys.Dir().Entry(1)
	if st != protocol.DirSI || len(sharers) != 1 {
		t.Fatalf("directory = %s %v", st, sharers)
	}
}

func res2trace(s *System) []string {
	if s.tlog == nil {
		return nil
	}
	return s.tlog.Lines()
}

func TestImplReadExFlow(t *testing.T) {
	sys, err := NewSystem(Config{
		Nodes: 4, ChannelCap: 8, Tables: genTables(t).Map(),
		Assignment: fixedAssignment(t), Mapping: implMapping(t),
		MaxSteps: 60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const line Addr = 0x100
	for i := 1; i <= 3; i++ {
		sys.Node(i).SetCache(line, protocol.CacheS)
	}
	sys.Dir().SetShared(line, NodeID(1), NodeID(2), NodeID(3))
	sys.Node(0).Script(Op{Kind: "prwrite", Addr: line})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if sys.Node(0).CacheState(line) != protocol.CacheM {
		t.Fatal("requester not M")
	}
	st, sharers := sys.Dir().Entry(line)
	if st != protocol.DirMESI || len(sharers) != 1 || sharers[0] != NodeID(0) {
		t.Fatalf("directory = %s %v", st, sharers)
	}
}

func TestImplMatchesSpecOnRandomWorkloads(t *testing.T) {
	// The §5 preservation claim, dynamically: the implementation engine
	// completes the same workloads coherently and with the same number of
	// operations as the spec-level engine.
	for _, seed := range []int64{11, 12, 13} {
		run := func(m *hwmap.Mapping) (*Result, *System) {
			sys, err := RandomSystem(genTables(t), fixedAssignment(t), RandomConfig{
				Nodes: 3, Addrs: 3, OpsPerNode: 15, Seed: seed, DirectOps: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				// Rebuild with the implementation engine and identical scripts.
				implSys, err := NewSystem(Config{
					Nodes: 3, ChannelCap: 16, Tables: genTables(t).Map(),
					Assignment: fixedAssignment(t), Mapping: m, MaxSteps: 200000,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					implSys.Node(i).Script(sys.Node(i).pendingOp...)
				}
				sys = implSys
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res, sys
		}
		specRes, specSys := run(nil)
		implRes, implSys := run(implMapping(t))
		if specRes.Outcome != Completed || implRes.Outcome != Completed {
			t.Fatalf("seed %d: outcomes %v / %v", seed, specRes.Outcome, implRes.Outcome)
		}
		if v := specSys.CheckCoherence(); len(v) != 0 {
			t.Fatalf("seed %d: spec incoherent: %v", seed, v)
		}
		if v := implSys.CheckCoherence(); len(v) != 0 {
			t.Fatalf("seed %d: impl incoherent: %v", seed, v)
		}
		if specRes.Stats.OpsCompleted != implRes.Stats.OpsCompleted {
			t.Fatalf("seed %d: ops %d vs %d", seed,
				specRes.Stats.OpsCompleted, implRes.Stats.OpsCompleted)
		}
	}
}

func TestImplFeedbackPathExercised(t *testing.T) {
	// Two completions processed back-to-back with a single-entry update
	// queue: the second must defer its directory write over the feedback
	// path (the §5 Dfdback mechanism), and the deferred write must land.
	sys := implSystem(t, 1)
	d, _ := sys.dir.(*implDirCtl)
	if d == nil {
		t.Fatal("no implementation engine")
	}
	// Open two read transactions on distinct lines.
	for i, addr := range []Addr{0x10, 0x11} {
		_ = i
		if ok, err := d.process(Message{Type: "read", From: NodeID(0), To: Dir, Addr: addr}); err != nil || !ok {
			t.Fatalf("read setup: %v %v", ok, err)
		}
	}
	// Drain the memq into... nothing; directly answer with mdata twice
	// without ticking, so the update queue cannot drain in between.
	for _, addr := range []Addr{0x10, 0x11} {
		if ok, err := d.process(Message{Type: "mdata", From: Mem, To: Dir, Addr: addr}); err != nil || !ok {
			t.Fatalf("mdata: %v %v", ok, err)
		}
	}
	if d.ImplStats.Feedbacks != 1 {
		t.Fatalf("feedbacks = %d, want 1", d.ImplStats.Feedbacks)
	}
	// Ticking drains the update queue and replays the deferred write.
	for i := 0; i < 10; i++ {
		d.tick()
	}
	if d.ImplStats.Replays != 1 {
		t.Fatalf("replays = %d, want 1", d.ImplStats.Replays)
	}
	for _, addr := range []Addr{0x10, 0x11} {
		st, sharers := d.Entry(addr)
		if st != protocol.DirSI || len(sharers) != 1 {
			t.Fatalf("line %d: directory = %s %v (deferred write lost?)", addr, st, sharers)
		}
	}
}

func TestImplQstatusRetry(t *testing.T) {
	// With the memmsg queue artificially full, a fresh request must be
	// answered with a retry (the Qstatus=Full row).
	sys := implSystem(t, 0)
	d, _ := sys.dir.(*implDirCtl)
	for i := 0; i < d.outqCap; i++ {
		d.memq = append(d.memq, Message{Type: "mread", From: Dir, To: Mem, Addr: Addr(0x900 + i), VC: "zz"})
	}
	if ok, err := d.process(Message{Type: "read", From: NodeID(0), To: Dir, Addr: 0x20}); err != nil || !ok {
		t.Fatalf("process: %v %v", ok, err)
	}
	if d.ImplStats.QFullRetries != 1 {
		t.Fatalf("QFullRetries = %d", d.ImplStats.QFullRetries)
	}
	// The retry went to the locmsg queue, not a memory access.
	if len(d.locq) != 1 || d.locq[0].Type != "retry" {
		t.Fatalf("locq = %v", d.locq)
	}
	if d.BusyCount() != 0 {
		t.Fatal("a retried request must not allocate a busy entry")
	}
}

func TestImplCloneUnsupported(t *testing.T) {
	sys := implSystem(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Clone on the implementation engine must panic")
		}
	}()
	sys.Clone()
}
