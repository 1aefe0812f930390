package deadlock

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"coherdb/internal/protocol"
)

// reportDigest hashes what an analysis reports: the protocol table (rows
// with origins, in order), the evidence rows behind every edge, and the
// rendered Describe() account. Each hash is truncated to 16 hex digits.
type reportDigest struct {
	protocol, evidence, describe string
}

func digestReport(rep *Report) reportDigest {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:8])
	}
	var proto, ev []byte
	for _, r := range rep.Protocol {
		proto = append(proto, r.String()...)
		proto = append(proto, '\n')
	}
	for _, e := range rep.Graph.Edges() {
		ev = append(ev, e.String()...)
		ev = append(ev, '\n')
		for _, r := range rep.Graph.Evidence(e) {
			ev = append(ev, "  "+r.String()+"\n"...)
		}
	}
	return reportDigest{
		protocol: sum(string(proto)),
		evidence: sum(string(ev)),
		describe: sum(rep.Graph.Describe()),
	}
}

// goldenCounts are the Stats counts pinned alongside the digests.
type goldenCounts struct {
	controller, placement, composed, protocol, rounds, nodes, edges, cycles int
}

func countsOf(s Stats) goldenCounts {
	return goldenCounts{s.ControllerRows, s.PlacementRows, s.ComposedRows, s.ProtocolRows,
		s.Rounds, s.Nodes, s.Edges, s.Cycles}
}

// TestFrozenAnalysisGolden pins every analysis configuration to the output
// of the original string-keyed composer: the same protocol rows in the same
// first-occurrence order with the same origins, the same evidence per edge,
// the same Describe() text and the same counts.
func TestFrozenAnalysisGolden(t *testing.T) {
	tables := controllerTables(t)
	configs := map[string]func(*Options){
		"default":      func(*Options) {},
		"noplacements": func(o *Options) { o.NoPlacements = true },
		"exact":        func(o *Options) { o.Relaxed = false },
		"workers1":     func(o *Options) { o.Workers = 1 },
		"closure":      func(o *Options) { o.Closure = true },
	}
	for _, g := range frozenGolden {
		g := g
		t.Run(g.config+"/"+g.assign, func(t *testing.T) {
			opts := DefaultOptions()
			configs[g.config](&opts)
			rep, err := Analyze(tables, assignment(t, g.assign), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestReport(rep); got != g.digest {
				t.Errorf("digest = %#v, want %#v", got, g.digest)
			}
			if got := countsOf(rep.Stats); got != g.counts {
				t.Errorf("counts = %+v, want %+v", got, g.counts)
			}
		})
	}
}

var frozenGolden = []struct {
	config, assign string
	digest         reportDigest
	counts         goldenCounts
}{
	{"default", protocol.AssignInitial,
		reportDigest{"6a46b0d0a2c970e6", "dbb5a8afd30df461", "394510db53d8157a"},
		goldenCounts{519, 2595, 80766, 1735, 1, 4, 15, 23}},
	{"default", protocol.AssignVC4,
		reportDigest{"772c9fadbc0d4a8d", "74757df0926089ab", "e4a0cfc55b26c68a"},
		goldenCounts{519, 2595, 35927, 1155, 1, 5, 16, 8}},
	{"default", protocol.AssignFixed,
		reportDigest{"22f1be8910eb2168", "fc5cc7bb9d85c5c9", "085fd9e0b39a2375"},
		goldenCounts{498, 2490, 32863, 673, 1, 6, 12, 0}},
	{"noplacements", protocol.AssignInitial,
		reportDigest{"81f59bdfeab27f91", "41c1901213f314eb", "9fe505c5c7e3dcfd"},
		goldenCounts{519, 519, 12394, 472, 1, 4, 13, 15}},
	{"noplacements", protocol.AssignVC4,
		reportDigest{"3334e2152d74adb6", "3a9ef6fb61898402", "1fede2e2a98ed7da"},
		goldenCounts{519, 519, 6791, 290, 1, 5, 13, 4}},
	{"noplacements", protocol.AssignFixed,
		reportDigest{"e0cc41a0000d201a", "cbe94a64006317f1", "1a4f49fb106e0cb9"},
		goldenCounts{498, 498, 6355, 198, 1, 6, 12, 0}},
	{"exact", protocol.AssignInitial,
		reportDigest{"9e23fa2a71a3147c", "944430ebfc2af09b", "06d262cbb5d2b051"},
		goldenCounts{519, 2595, 1735, 535, 1, 4, 11, 9}},
	{"exact", protocol.AssignVC4,
		reportDigest{"427387592704ca4f", "108bb638dabb9d5d", "369a1851c23c189e"},
		goldenCounts{519, 2595, 1681, 550, 1, 5, 14, 5}},
	{"exact", protocol.AssignFixed,
		reportDigest{"2bea92e1870599bc", "1b7cfd60303e79de", "e8050bd4efd3b118"},
		goldenCounts{498, 2490, 1170, 409, 1, 6, 12, 0}},
	{"workers1", protocol.AssignInitial,
		reportDigest{"6a46b0d0a2c970e6", "dbb5a8afd30df461", "394510db53d8157a"},
		goldenCounts{519, 2595, 80766, 1735, 1, 4, 15, 23}},
	{"workers1", protocol.AssignVC4,
		reportDigest{"772c9fadbc0d4a8d", "74757df0926089ab", "e4a0cfc55b26c68a"},
		goldenCounts{519, 2595, 35927, 1155, 1, 5, 16, 8}},
	{"workers1", protocol.AssignFixed,
		reportDigest{"22f1be8910eb2168", "fc5cc7bb9d85c5c9", "085fd9e0b39a2375"},
		goldenCounts{498, 2490, 32863, 673, 1, 6, 12, 0}},
	{"closure", protocol.AssignVC4,
		reportDigest{"82dac9227d85e462", "9af28ceef28d7dd0", "ecf9ede9e0c63ff2"},
		goldenCounts{519, 2595, 35927, 3147, 4, 5, 16, 8}},
}
