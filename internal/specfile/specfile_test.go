package specfile

import (
	"errors"
	"strings"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
	"coherdb/internal/sqlmini"
)

const readexSpec = `
-- the Fig. 3 readex fragment as a database input
table D_readex

input  inmsg = readex, data, idone  nonull
input  dirst = I, SI, Busy-sd, Busy-d, Busy-s
input  dirpv = zero, one, gone
output locmsg = compl-data
output remmsg = sinv
output memmsg = mread
output nxtdirst = MESI, Busy-sd, Busy-d, Busy-s
output nxtdirpv = repl, dec

constrain dirst:
    inmsg = readex ? (dirst = I and dirpv = zero) or (dirst = SI and dirpv <> zero) :
    inmsg = data ? dirst = Busy-sd or dirst = Busy-d :
    dirst = Busy-sd or dirst = Busy-s

constrain dirpv:
    inmsg = data and dirst = Busy-d ? dirpv = zero :
    inmsg = idone and dirst = Busy-s ? dirpv = zero :
    inmsg = readex and dirst = I ? dirpv = zero : dirpv <> NULL

constrain remmsg:
    inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL

constrain memmsg:
    inmsg = readex ? memmsg = mread : memmsg = NULL

constrain locmsg:
    (inmsg = data and dirst = Busy-d) or (inmsg = idone and dirst = Busy-s) ?
    locmsg = compl-data : locmsg = NULL

constrain nxtdirst:
    inmsg = readex and dirst = I ? nxtdirst = Busy-d :
    inmsg = readex ? nxtdirst = Busy-sd :
    inmsg = data and dirst = Busy-sd ? nxtdirst = Busy-s :
    inmsg = idone and dirst = Busy-sd ? nxtdirst = Busy-d :
    nxtdirst = MESI

constrain nxtdirpv:
    (inmsg = data and dirst = Busy-d) or (inmsg = idone and dirst = Busy-s) ?
    nxtdirpv = repl :
    inmsg = idone and dirst = Busy-sd ? nxtdirpv = dec : nxtdirpv = NULL

check busy-has-no-vector "busy states carry no stable vector":
    SELECT dirst, nxtdirpv FROM D_readex
    WHERE dirst = 'I' AND nxtdirpv = 'dec'
`

func TestParseReadexSpec(t *testing.T) {
	f, err := Parse(strings.NewReader(readexSpec))
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec.Name != "D_readex" {
		t.Fatalf("name = %q", f.Spec.Name)
	}
	if got := len(f.Spec.InputNames()); got != 3 {
		t.Fatalf("inputs = %d", got)
	}
	if got := len(f.Spec.Columns()) - len(f.Spec.InputNames()); got != 5 {
		t.Fatalf("outputs = %d", got)
	}
	if f.Spec.ConstraintCount() != 7 {
		t.Fatalf("constraints = %d", f.Spec.ConstraintCount())
	}
	if len(f.Checks) != 1 || f.Checks[0].Name != "busy-has-no-vector" {
		t.Fatalf("checks = %+v", f.Checks)
	}
	if f.Checks[0].Desc != "busy states carry no stable vector" {
		t.Fatalf("desc = %q", f.Checks[0].Desc)
	}
}

func TestParsedSpecSolvesToReferenceTable(t *testing.T) {
	f, err := Parse(strings.NewReader(readexSpec))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := constraint.Solve(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := protocol.Figure3FragmentSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	// The reference spec also constrains inmsg (non-null), which the file
	// expresses via nonull; row sets must match.
	want, _, err := constraint.Solve(ref)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := got.SetName(want.Name()).EqualRows(want)
	if err != nil || !eq {
		t.Fatalf("parsed spec table differs: eq=%v err=%v (%d vs %d rows)",
			eq, err, got.NumRows(), want.NumRows())
	}
}

func TestCheckRunsAgainstGeneratedTable(t *testing.T) {
	f, err := Parse(strings.NewReader(readexSpec))
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := constraint.Solve(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	db := sqlmini.NewDB()
	db.PutTable(tab)
	for _, inv := range f.Checks {
		empty, err := db.QueryEmpty(inv.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if !empty {
			t.Fatalf("check %s violated", inv.Name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f1, err := Parse(strings.NewReader(readexSpec))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, f1); err != nil {
		t.Fatal(err)
	}
	f2, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	t1, _, err := constraint.Solve(f1.Spec)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := constraint.Solve(f2.Spec)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := t1.EqualRows(t2.SetName(t1.Name()))
	if err != nil || !eq {
		t.Fatalf("round trip changed the table: eq=%v err=%v", eq, err)
	}
	if len(f2.Checks) != len(f1.Checks) {
		t.Fatal("round trip lost checks")
	}
}

func TestFullDirectorySpecRoundTrip(t *testing.T) {
	// The real controller specs render to the text format and back: the
	// re-parsed spec solves to the identical table. This is the paper's
	// "enhanced architecture specification" as a durable artifact.
	if testing.Short() {
		t.Skip("full D generation is slow")
	}
	for _, sb := range protocol.SpecBuilders() {
		spec, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		var rendered strings.Builder
		if err := Write(&rendered, &File{Spec: spec}); err != nil {
			t.Fatal(err)
		}
		reparsed, err := Parse(strings.NewReader(rendered.String()))
		if err != nil {
			t.Fatalf("%s: re-parse: %v", sb.Name, err)
		}
		protocol.RegisterFuncs(reparsed.Spec.RegisterFunc)
		want, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := constraint.Solve(reparsed.Spec)
		if err != nil {
			t.Fatalf("%s: solving re-parsed spec: %v", sb.Name, err)
		}
		eq, err := got.SetName(want.Name()).EqualRows(want)
		if err != nil || !eq {
			t.Fatalf("%s: round trip changed the table (%d vs %d rows)",
				sb.Name, got.NumRows(), want.NumRows())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no table":            `input a = 1`,
		"dup table":           "table t\ntable u",
		"bad column":          "table t\ninput broken",
		"empty values":        "table t\ninput a =",
		"constrain no colon":  "table t\ninput a = 1\nconstrain a",
		"empty constraint":    "table t\ninput a = 1\nconstrain a:\n",
		"unknown column":      "table t\ninput a = 1\nconstrain zz: a = \"1\"",
		"stray text":          "table t\nwhatnow",
		"check without colon": "table t\ninput a = 1\ncheck foo",
		"bad check desc":      "table t\ninput a = 1\ncheck foo bar: SELECT 1",
		"empty check":         "table t\ninput a = 1\ncheck foo:\n",
		"empty file":          "",
		"constrain first":     "constrain a: a = 1",
		"column first":        "input a = 1\ntable t",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		} else if !errors.Is(err, ErrSyntax) && !strings.Contains(err.Error(), "constraint") {
			t.Errorf("%s: err = %v, want ErrSyntax", name, err)
		}
	}
}

func TestParseCheckWithoutDescription(t *testing.T) {
	src := "table t\ninput a = 1\ncheck lonely: SELECT a FROM t WHERE a = 'zz'"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Checks) != 1 || f.Checks[0].Desc != "lonely" {
		t.Fatalf("checks = %+v", f.Checks)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
-- leading comment
table t  -- trailing comment

input a = x, y  -- values

constrain a:
    -- a comment inside a body
    a = "x"
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := constraint.Solve(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("rows = %d\n%s", tab.NumRows(), tab)
	}
}
