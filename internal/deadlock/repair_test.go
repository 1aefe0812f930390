package deadlock

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

func TestRepairConvergesFromVC4(t *testing.T) {
	// The automated §4.2 loop must fix the assignment that defeated the
	// hand-tuned VC4 variant.
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignVC4)
	res, err := Repair(tables, v, DefaultOptions(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge; %d actions, %d cycles left:\n%s",
			len(res.Actions), len(res.Report.Cycles), res.Report.Graph.Describe())
	}
	if len(res.Actions) == 0 {
		t.Fatal("vc4 needs repair but no action taken")
	}
	t.Logf("converged after %d action(s):", len(res.Actions))
	for _, a := range res.Actions {
		t.Logf("  %s", a)
	}
	// The repaired assignment really is clean.
	rep, err := Analyze(tables, res.Final, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlocked() {
		t.Fatal("final assignment re-analyzes as deadlocked")
	}
}

func TestRepairConvergesFromInitial(t *testing.T) {
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignInitial)
	res, err := Repair(tables, v, DefaultOptions(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge from the initial assignment after %d actions", len(res.Actions))
	}
	t.Logf("initial4 repaired in %d action(s)", len(res.Actions))
}

func TestRepairNoOpOnCleanAssignment(t *testing.T) {
	tables := controllerTables(t)
	v := assignment(t, protocol.AssignFixed)
	res, err := Repair(tables, v, DefaultOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Actions) != 0 {
		t.Fatalf("clean assignment modified: %v", res.Actions)
	}
}

func TestRepairActionRendering(t *testing.T) {
	move := RepairAction{Kind: "move", M: "mread", S: "home", D: "home", NewVC: "VCR1", Cycles: 3}
	ded := RepairAction{Kind: "dedicate", M: "mread", S: "home", D: "home", Cycles: 1}
	if move.String() == "" || ded.String() == "" {
		t.Fatal("empty renderings")
	}
	if move.String() == ded.String() {
		t.Fatal("kinds indistinguishable")
	}
}

// vDigest hashes an assignment table's rows (m, s, d, v) in table order,
// truncated to 16 hex digits.
func vDigest(v *rel.Table) string {
	var b strings.Builder
	for i := 0; i < v.NumRows(); i++ {
		for _, c := range []string{"m", "s", "d", "v"} {
			b.WriteString(v.Get(i, c).String())
			b.WriteByte('\x1f')
		}
		b.WriteByte('\n')
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:8])
}

// TestFrozenRepairGolden pins the §4.2 repair loop: the action list from
// each assignment and a digest of the final V, recorded on the
// string-keyed analysis.
func TestFrozenRepairGolden(t *testing.T) {
	tables := controllerTables(t)
	for _, g := range []struct {
		assign  string
		actions []string
		final   string
	}{
		{protocol.AssignInitial, []string{
			"move (retry, home, home) to VCR1 [23 cycles]",
			"move (compl, home, home) to VCR2 [23 cycles]",
			"move (sinv, home, home) to VCR3 [45 cycles]",
			"move (sinv, home, remote) to VCR4 [45 cycles]",
			"move (intr, home, home) to VCR5 [98 cycles]",
			"move (intr, home, remote) to VCR6 [98 cycles]",
			"move (sflush, home, home) to VCR7 [189 cycles]",
			"move (sflush, home, remote) to VCR8 [189 cycles]",
			"move (sread, home, home) to VCR9 [330 cycles]",
			"move (sread, home, remote) to VCR10 [330 cycles]",
			"move (mread, home, home) to VCR11 [330 cycles]",
			"move (mwrite, home, home) to VCR12 [1098 cycles]",
			"move (compl, local, home) to VCR13 [533 cycles]",
			"move (mdata, home, home) to VCR14 [9 cycles]",
			"move (mdone, home, home) to VCR15 [4 cycles]",
			"move (mrmw, home, home) to VCR16 [1 cycles]",
			"move (mwrpart, home, home) to VCR17 [1 cycles]",
			"move (wb, home, home) to VCR18 [1 cycles]",
		}, "a22efad1066aae41"},
		{protocol.AssignVC4, []string{
			"move (mread, home, home) to VCR1 [8 cycles]",
			"move (mwrite, home, home) to VCR2 [24 cycles]",
			"move (compl, local, home) to VCR3 [24 cycles]",
			"move (retry, home, home) to VCR4 [8 cycles]",
			"move (mdata, home, home) to VCR5 [8 cycles]",
			"move (mdone, home, home) to VCR6 [3 cycles]",
		}, "90e769c81a70d6db"},
		{protocol.AssignFixed, nil, "bf90e0ca640dcb6c"},
	} {
		res, err := Repair(tables, assignment(t, g.assign), DefaultOptions(), 64)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, a := range res.Actions {
			got = append(got, a.String())
		}
		if !res.Converged {
			t.Errorf("%s: did not converge", g.assign)
		}
		if strings.Join(got, "\n") != strings.Join(g.actions, "\n") {
			t.Errorf("%s: actions\n%s\nwant\n%s", g.assign, strings.Join(got, "\n"), strings.Join(g.actions, "\n"))
		}
		if d := vDigest(res.Final); d != g.final {
			t.Errorf("%s: final V digest = %s, want %s", g.assign, d, g.final)
		}
	}
}
