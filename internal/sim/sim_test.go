package sim

import (
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

var (
	tabOnce sync.Once
	tabVal  Tables
	tabErr  error
)

func genTables(t testing.TB) Tables {
	t.Helper()
	tabOnce.Do(func() {
		db := sqlmini.NewDB()
		if _, tabErr = protocol.GenerateAllOpts(db, constraint.Options{}); tabErr != nil {
			return
		}
		tabVal = Tables{
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

func fixedAssignment(t testing.TB) *rel.Table {
	t.Helper()
	v, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestChannelFIFO(t *testing.T) {
	ch := NewChannel("VC0", 2)
	m1 := Message{Type: "a"}
	m2 := Message{Type: "b"}
	if !ch.Send(m1) || !ch.Send(m2) {
		t.Fatal("sends failed")
	}
	if ch.Send(Message{Type: "c"}) {
		t.Fatal("overfull send accepted")
	}
	if h, ok := ch.Head(); !ok || h.Type != "a" {
		t.Fatal("head wrong")
	}
	if got, _ := ch.Pop(); got.Type != "a" {
		t.Fatal("pop wrong")
	}
	if ch.Len() != 1 {
		t.Fatal("len wrong")
	}
	if !ch.CanSend(1) || ch.CanSend(2) {
		t.Fatal("CanSend wrong")
	}
	snap := ch.Snapshot()
	if len(snap) != 1 || snap[0].Type != "b" {
		t.Fatal("snapshot wrong")
	}
	unbounded := NewChannel("x", 0)
	for i := 0; i < 100; i++ {
		if !unbounded.Send(Message{}) {
			t.Fatal("unbounded channel rejected send")
		}
	}
}

// raceSystem is a 2-node system in which node 0 reads and node 1 writes
// the same line.
func raceSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 4, Tables: genTables(t).Map(),
		Assignment: fixedAssignment(t), MaxSteps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).Script(Op{Kind: "prread", Addr: 1})
	sys.Node(1).Script(Op{Kind: "prwrite", Addr: 1})
	return sys
}

// TestCloneCountsOwnTransitions checks that a clone counts its table
// firings into its own Stats, never into the original's.
func TestCloneCountsOwnTransitions(t *testing.T) {
	fresh, err := raceSystem(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.Transitions == 0 {
		t.Fatal("a fresh run counted no transitions")
	}
	for name, clone := range map[string]func(*System) *System{
		"Clone":         (*System).Clone,
		"CloneDetached": (*System).CloneDetached,
	} {
		orig := raceSystem(t)
		res, err := clone(orig).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Transitions != fresh.Stats.Transitions {
			t.Errorf("%s: clone counted %d transitions, a fresh run %d", name, res.Stats.Transitions, fresh.Stats.Transitions)
		}
		if got := orig.stats.Transitions; got != 0 {
			t.Errorf("%s: the original, which never ran, counted %d transitions", name, got)
		}
	}
}

// TestCloneKeepsMaxOccupancy checks that a clone's Stats is a consistent
// snapshot of the original's, maps included, and that the clone's sends
// never reach the original's maps.
func TestCloneKeepsMaxOccupancy(t *testing.T) {
	sys := fig4CodecSystem(t, protocol.AssignFixed)
	for applied := 0; applied < 4; {
		progressed := false
		for _, a := range sys.CandidateActions() {
			ok, err := sys.Apply(a)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				applied++
				progressed = true
				break
			}
		}
		if !progressed {
			t.Fatalf("stuck after %d actions", applied)
		}
	}
	if len(sys.stats.MaxOccupancy) == 0 {
		t.Fatal("four actions recorded no channel occupancy")
	}
	clone := sys.Clone()
	if !reflect.DeepEqual(clone.stats, sys.stats) {
		t.Fatalf("clone Stats %+v, original %+v", clone.stats, sys.stats)
	}
	want := maps.Clone(sys.stats.MaxOccupancy)
	for i := 0; i < 5; i++ { // the unbounded internal path
		clone.send(Message{Type: "idone", From: Dir, To: Dir, Addr: 0xA})
	}
	if !maps.Equal(sys.stats.MaxOccupancy, want) {
		t.Fatalf("the clone's sends moved the original's MaxOccupancy to %v, want %v", sys.stats.MaxOccupancy, want)
	}
}

// TestClonesApplyConcurrently runs clones that share their matchers on
// four goroutines, as the model checker's workers do; run it under -race.
func TestClonesApplyConcurrently(t *testing.T) {
	drive := func(s *System) int {
		for steps := 0; steps < 200; steps++ {
			progressed := false
			for _, a := range s.CandidateActions() {
				ok, err := s.Apply(a)
				if err != nil {
					t.Error(err)
					return -1
				}
				if ok {
					progressed = true
					break
				}
			}
			if !progressed {
				break
			}
		}
		return s.stats.Transitions
	}
	root := raceSystem(t)
	want := drive(root.Clone())
	var wg sync.WaitGroup
	got := make([]int, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = drive(root.Clone())
		}(g)
	}
	wg.Wait()
	for g, n := range got {
		if n != want {
			t.Errorf("goroutine %d counted %d transitions, want %d", g, n, want)
		}
	}
	if root.stats.Transitions != 0 {
		t.Errorf("root counted %d transitions", root.stats.Transitions)
	}
}

func TestSimpleReadMiss(t *testing.T) {
	tables := genTables(t)
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 4, Tables: tables.Map(),
		Assignment: fixedAssignment(t), MaxSteps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).Script(Op{Kind: "prread", Addr: 1})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if sys.Node(0).CacheState(1) != protocol.CacheS {
		t.Fatalf("cache state = %s, want S", sys.Node(0).CacheState(1))
	}
	st, sharers := sys.Dir().Entry(1)
	if st != protocol.DirSI || len(sharers) != 1 || sharers[0] != NodeID(0) {
		t.Fatalf("directory = %s %v", st, sharers)
	}
	if sys.Dir().BusyCount() != 0 {
		t.Fatal("busy entries leaked")
	}
}

func TestWriteMissTakesOwnership(t *testing.T) {
	tables := genTables(t)
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 4, Tables: tables.Map(),
		Assignment: fixedAssignment(t), MaxSteps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).Script(Op{Kind: "prwrite", Addr: 7})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if sys.Node(0).CacheState(7) != protocol.CacheM {
		t.Fatalf("cache state = %s, want M", sys.Node(0).CacheState(7))
	}
	st, sharers := sys.Dir().Entry(7)
	if st != protocol.DirMESI || len(sharers) != 1 {
		t.Fatalf("directory = %s %v", st, sharers)
	}
}

func TestFigure2ReadExInvalidatesSharers(t *testing.T) {
	tables := genTables(t)
	sys, err := ReadExSystem(tables, fixedAssignment(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v\n%s", res.Outcome, strings.Join(res.Trace, "\n"))
	}
	const line Addr = 0x100
	if sys.Node(0).CacheState(line) != protocol.CacheM {
		t.Fatalf("requester state = %s", sys.Node(0).CacheState(line))
	}
	for i := 1; i <= 3; i++ {
		if st := sys.Node(i).CacheState(line); st != protocol.CacheI {
			t.Fatalf("sharer %d state = %s, want I", i, st)
		}
	}
	st, sharers := sys.Dir().Entry(line)
	if st != protocol.DirMESI || len(sharers) != 1 || sharers[0] != NodeID(0) {
		t.Fatalf("directory = %s %v", st, sharers)
	}
	// The trace must show the Fig. 2 message sequence.
	trace := strings.Join(res.Trace, "\n")
	for _, want := range []string{"readex", "sinv", "mread", "idone", "mdata", "datax", "compl"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestUpgradeSoleSharer(t *testing.T) {
	// read then write on the same node: the upgrade finds no other
	// sharer; the synthesized zero-vector completion must still finish.
	tables := genTables(t)
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 4, Tables: tables.Map(),
		Assignment: fixedAssignment(t), MaxSteps: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).Script(
		Op{Kind: "prread", Addr: 3},
		Op{Kind: "prwrite", Addr: 3},
	)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if sys.Node(0).CacheState(3) != protocol.CacheM {
		t.Fatalf("state = %s, want M", sys.Node(0).CacheState(3))
	}
}

func TestWritebackReleasesOwnership(t *testing.T) {
	tables := genTables(t)
	sys, err := NewSystem(Config{
		Nodes: 2, ChannelCap: 4, Tables: tables.Map(),
		Assignment: fixedAssignment(t), MaxSteps: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).SetCache(9, protocol.CacheM)
	sys.Dir().SetOwner(9, NodeID(0))
	sys.Node(0).Script(Op{Kind: "previct", Addr: 9})
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if st, _ := sys.Dir().Entry(9); st != protocol.DirI {
		t.Fatalf("directory = %s, want I", st)
	}
	if sys.Node(0).CacheState(9) != protocol.CacheI {
		t.Fatal("cache still holds the line")
	}
}

func TestFigure4DeadlockUnderVC4Assignment(t *testing.T) {
	// F4: the published deadlock manifests dynamically under the VC4
	// assignment...
	tables := genTables(t)
	res, err := RunFigure4(tables, protocol.AssignVC4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Deadlocked {
		t.Fatalf("outcome = %v, want deadlock\n%s", res.Outcome, strings.Join(res.Trace, "\n"))
	}
	// The blockage must involve VC2 and VC4 (the cyclic pair of Fig. 4).
	if !strings.Contains(res.Blockage, "VC4") || !strings.Contains(res.Blockage, "VC2") {
		t.Fatalf("blockage does not show the VC2/VC4 pair:\n%s", res.Blockage)
	}
}

func TestFigure4CompletesUnderFixedAssignment(t *testing.T) {
	// ... and disappears once mread rides the dedicated path.
	tables := genTables(t)
	res, err := RunFigure4(tables, protocol.AssignFixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v\n%s\n%s", res.Outcome, res.Blockage, strings.Join(res.Trace, "\n"))
	}
}

func TestRunScenarioNames(t *testing.T) {
	tables := genTables(t)
	if len(ScenarioNames()) != 2 {
		t.Fatal("scenario list wrong")
	}
	sys, err := ReadExSystem(tables, fixedAssignment(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil || res.Outcome != Completed {
		t.Fatalf("readex scenario: %v %v", err, res)
	}
}

func TestRandomWorkloadCoherent(t *testing.T) {
	tables := genTables(t)
	for _, seed := range []int64{1, 2, 3} {
		sys, err := RandomSystem(tables, fixedAssignment(t), RandomConfig{
			Nodes: 3, Addrs: 3, OpsPerNode: 15, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Outcome != Completed {
			t.Fatalf("seed %d: outcome %v\n%s", seed, res.Outcome, res.Blockage)
		}
		if v := sys.CheckCoherence(); len(v) != 0 {
			t.Fatalf("seed %d: coherence violations: %v", seed, v)
		}
		if res.Stats.OpsCompleted == 0 {
			t.Fatalf("seed %d: nothing completed", seed)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	tables := genTables(t)
	run := func() Stats {
		sys, err := RandomSystem(tables, fixedAssignment(t), RandomConfig{
			Nodes: 3, Addrs: 2, OpsPerNode: 10, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Delivered != b.Delivered || a.OpsCompleted != b.OpsCompleted {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestDeterministicFinalFingerprint(t *testing.T) {
	// Same seed, same final protocol state — byte for byte.
	tables := genTables(t)
	run := func() string {
		sys, err := RandomSystem(tables, fixedAssignment(t), RandomConfig{
			Nodes: 3, Addrs: 3, OpsPerNode: 15, Seed: 99, DirectOps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Fingerprint()
	}
	if run() != run() {
		t.Fatal("final fingerprints differ across identical runs")
	}
}

func TestOutcomeString(t *testing.T) {
	if Completed.String() == "" || Deadlocked.String() == "" || StepLimit.String() == "" {
		t.Fatal("outcome strings empty")
	}
	if Outcome(99).String() != "unknown" {
		t.Fatal("unknown outcome")
	}
}
