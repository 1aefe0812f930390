package modelcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/sim"
)

// traceDigest is the first 8 bytes of the SHA-256 of a trace's actions,
// one per line, in hex.
func traceDigest(trace []sim.Action) string {
	lines := make([]string, len(trace))
	for i, a := range trace {
		lines[i] = a.String()
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// TestFrozenExploreGolden pins what Explore finds on fixed systems, under
// the default worker count and Workers=1. The values were recorded while
// the in-memory BFS still ran beside the segmented engine, and both
// engines produced them: states, edges, depth and StateHash on clean
// runs; violation kind and trace on violating ones (where the state
// counts of the two legitimately differed, so they are not pinned); and
// ErrLimit one state past MaxStates.
func TestFrozenExploreGolden(t *testing.T) {
	vc0 := map[string]int{"VC0": 2}
	clean := Options{MaxStates: 500000, CheckCoherence: true}
	type golden struct {
		name   string
		assign string
		caps   map[string]int
		setup  func(*sim.System)
		opts   Options

		// Clean runs.
		states, edges, depth int
		hash                 uint64
		// Violating runs.
		kind     string
		traceLen int
		digest   string
		// Runs stopped by MaxStates.
		err error
	}
	cases := []golden{
		{name: "fig4_fixed+1", assign: protocol.AssignFixed, caps: vc0, setup: withPrreads(1), opts: clean,
			states: 1126, edges: 2597, depth: 24, hash: 0xb2e3c4301f74167a},
		{name: "fig4_fixed+2", assign: protocol.AssignFixed, caps: vc0, setup: withPrreads(2), opts: clean,
			states: 6507, edges: 16924, depth: 31, hash: 0xfc05ba2271386972},
		{name: "fig4_fixed+3", assign: protocol.AssignFixed, caps: vc0, setup: withPrreads(3), opts: clean,
			states: 18351, edges: 51541, depth: 37, hash: 0xd988954e2811d850},
		{name: "fig4_vc4_deadlock", assign: protocol.AssignVC4, caps: vc0, setup: figure4Setup, opts: clean,
			kind: "deadlock", traceLen: 8, digest: "391d1b2c746026a5"},
		{name: "coherence_at_root", assign: protocol.AssignFixed, setup: coherenceAtRoot,
			opts: Options{CheckCoherence: true},
			kind: "coherence", traceLen: 0, digest: "e3b0c44298fc1c14"},
		{name: "max_states_10", assign: protocol.AssignFixed, caps: vc0, setup: figure4Setup,
			opts: Options{MaxStates: 10}, states: 11, err: ErrLimit},
	}
	// The equivalence matrix's workloads; evict_cross is Fig. 4 fixed +0.
	matrix := map[string]golden{
		"read":        {states: 7, edges: 6, depth: 6, hash: 0xa1a0aea2d1bb61d4},
		"read_read":   {states: 42, edges: 62, depth: 12, hash: 0x5825b7ecb69fd636},
		"write_read":  {states: 48, edges: 68, depth: 14, hash: 0x54432d5bf90e66d3},
		"evict_cross": {states: 227, edges: 444, depth: 16, hash: 0xb03180f816ce9d43},
	}
	for _, w := range matrixWorkloads {
		g := matrix[w.name]
		g.name, g.assign, g.caps, g.setup, g.opts = w.name, protocol.AssignFixed, vc0, w.setup, clean
		cases = append(cases, g)
	}

	for _, g := range cases {
		for _, workers := range []int{0, 1} {
			o := g.opts
			o.Workers = workers
			rep, err := Explore(buildSystem(t, g.assign, g.caps, g.setup), o)
			where := g.name
			if workers == 1 {
				where += "/workers1"
			}
			switch {
			case g.err != nil:
				if !errors.Is(err, g.err) || rep.States != g.states {
					t.Errorf("%s: err=%v states=%d, want %v with %d states", where, err, rep.States, g.err, g.states)
				}
			case err != nil:
				t.Errorf("%s: %v", where, err)
			case g.kind != "":
				v := rep.Violation
				if v == nil {
					t.Errorf("%s: no violation, want %s", where, g.kind)
				} else if v.Kind != g.kind || len(v.Trace) != g.traceLen || traceDigest(v.Trace) != g.digest {
					t.Errorf("%s: %s with %d-action trace %s, want %s with %d-action trace %s",
						where, v.Kind, len(v.Trace), traceDigest(v.Trace), g.kind, g.traceLen, g.digest)
				}
			default:
				if rep.Violation != nil {
					t.Errorf("%s: unexpected %s", where, rep.Violation.Kind)
				} else if rep.States != g.states || rep.Edges != g.edges || rep.Depth != g.depth || rep.StateHash != g.hash {
					t.Errorf("%s: states=%d edges=%d depth=%d hash=%016x, want %d/%d/%d %016x",
						where, rep.States, rep.Edges, rep.Depth, rep.StateHash, g.states, g.edges, g.depth, g.hash)
				}
			}
		}
	}
}
