package sim

import (
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// Tables bundles the controller tables the simulator needs.
type Tables struct {
	D, M, C, N *rel.Table
}

// Map converts the bundle to the Config map form.
func (t Tables) Map() map[string]*rel.Table {
	return map[string]*rel.Table{"D": t.D, "M": t.M, "C": t.C, "N": t.N}
}

// Figure4System builds the §4.2 / Fig. 4 scenario: two interleaved
// transactions on lines A and B across two quads. The local node (node 0)
// holds B modified and wants A exclusive; the remote node (node 1) holds A
// modified and is evicting it. With unit channel capacities and a memory
// controller slower than the snoop round trip, the VC2/VC4 cyclic wait
// freezes under the VC4 assignment and completes under the fixed one.
func Figure4System(tables Tables, assignment *rel.Table) (*System, error) {
	sys, err := NewSystem(Config{
		Nodes:      2,
		ChannelCap: 1,
		// VC0 must hold the two concurrent requests from the local node
		// (§4.2: "the local node concurrently issues wb(B) and readex(A)
		// requests on VC0").
		ChannelCaps:     map[string]int{"VC0": 2},
		Tables:          tables.Map(),
		Assignment:      assignment,
		MemLatency:      12,
		MaxRetries:      1,
		StarvationLimit: 400,
		MaxSteps:        20000,
		Trace:           true,
	})
	if err != nil {
		return nil, err
	}
	const (
		lineA Addr = 0xA
		lineB Addr = 0xB
	)
	local, remote := sys.Node(0), sys.Node(1)
	// Line B: modified at the local node; line A: modified at the remote.
	local.SetCache(lineB, protocol.CacheM)
	sys.Dir().SetOwner(lineB, NodeID(0))
	remote.SetCache(lineA, protocol.CacheM)
	sys.Dir().SetOwner(lineA, NodeID(1))
	// The local node concurrently writes back B and requests A exclusive;
	// the remote node evicts A, so its writeback races the invalidation.
	local.Script(
		Op{Kind: "previct", Addr: lineB}, // -> wb(B)
		Op{Kind: "prwrite", Addr: lineA}, // -> readex(A)
	)
	remote.Script(
		// The eviction is cued so its wb(A) is in flight exactly when
		// sinv(A) lands (§4.2: "the remote node writes back its modified
		// line A... before receiving sinv(A)").
		Op{Kind: "previct", Addr: lineA, Delay: 1},
	)
	return sys, nil
}

// RunFigure4 runs the Fig. 4 scenario under the named channel assignment
// and returns the result.
func RunFigure4(tables Tables, assignmentName string) (*Result, error) {
	v, err := protocol.BuildAssignment(assignmentName)
	if err != nil {
		return nil, err
	}
	sys, err := Figure4System(tables, v)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// ReadExSystem builds the Fig. 2 scenario: node 0 requests exclusive
// ownership of a line shared by nodes 1..k, exercising the
// Busy-sd -> Busy-s/Busy-d readex flow.
func ReadExSystem(tables Tables, assignment *rel.Table, sharers int) (*System, error) {
	sys, err := NewSystem(Config{
		Nodes:      sharers + 1,
		ChannelCap: 8,
		Tables:     tables.Map(),
		Assignment: assignment,
		MaxSteps:   50000,
		Trace:      true,
	})
	if err != nil {
		return nil, err
	}
	const line Addr = 0x100
	ids := make([]EntityID, 0, sharers)
	for i := 1; i <= sharers; i++ {
		sys.Node(i).SetCache(line, protocol.CacheS)
		ids = append(ids, NodeID(i))
	}
	sys.Dir().SetShared(line, ids...)
	sys.Node(0).Script(Op{Kind: "prwrite", Addr: line})
	return sys, nil
}

// ScenarioNames lists the built-in scenarios for cmd/cohersim.
func ScenarioNames() []string { return []string{"readex", "fig4"} }
