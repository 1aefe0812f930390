package sim

import (
	"strings"
	"testing"

	"coherdb/internal/protocol"
)

// TestRandomSweepNoProtocolHoles drives forty seeded random workloads
// through the spec-level engine: every run must complete with no unmatched
// table input (a protocol hole) and a coherent final state. The sweep is
// what exposed the stale-upgrade race (an upgrade from a node invalidated
// mid-flight must be nacked via the presence-vector membership check).
func TestRandomSweepNoProtocolHoles(t *testing.T) {
	v, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 40; seed++ {
		sys, err := RandomSystem(genTables(t), v, RandomConfig{
			Nodes: 3, Addrs: 3, OpsPerNode: 20, Seed: seed, DirectOps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Outcome != Completed {
			t.Fatalf("seed %d: %v\n%s", seed, res.Outcome, res.Blockage)
		}
		if viol := sys.CheckCoherence(); len(viol) != 0 {
			t.Fatalf("seed %d: %v", seed, viol)
		}
	}
}

// TestRandomSweepImplEngine runs a smaller sweep on the Figure 5
// implementation engine.
func TestRandomSweepImplEngine(t *testing.T) {
	v, err := protocol.BuildAssignment(protocol.AssignFixed)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		sys, err := NewSystem(Config{
			Nodes: 3, ChannelCap: 16, Tables: genTables(t).Map(),
			Assignment: v, Mapping: implMapping(t), MaxSteps: 400000,
		})
		if err != nil {
			t.Fatal(err)
		}
		seedSys, err := RandomSystem(genTables(t), v, RandomConfig{
			Nodes: 3, Addrs: 3, OpsPerNode: 20, Seed: seed, DirectOps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		CopyScripts(seedSys, sys)
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, strings.Join(res2trace(sys), "\n"))
		}
		if res.Outcome != Completed {
			t.Fatalf("seed %d: %v\n%s", seed, res.Outcome, res.Blockage)
		}
		if viol := sys.CheckCoherence(); len(viol) != 0 {
			t.Fatalf("seed %d: %v", seed, viol)
		}
	}
}
