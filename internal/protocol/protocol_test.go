package protocol

import (
	"sync"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Solving D is the expensive part of this package's tests; share one copy.
var (
	dOnce  sync.Once
	dTable *rel.Table
	dStats constraint.Stats
	dErr   error
)

func directoryTable(t testing.TB) (*rel.Table, constraint.Stats) {
	t.Helper()
	dOnce.Do(func() {
		var spec *constraint.Spec
		spec, _, dErr = buildDirectory()
		if dErr != nil {
			return
		}
		dTable, dStats, dErr = constraint.Solve(spec)
	})
	if dErr != nil {
		t.Fatal(dErr)
	}
	return dTable, dStats
}

// controllerSpecs builds the eight controller specs, keyed by table name.
func controllerSpecs(t testing.TB) map[string]*constraint.Spec {
	t.Helper()
	out := map[string]*constraint.Spec{}
	for _, sb := range SpecBuilders() {
		s, err := sb.Build()
		if err != nil {
			t.Fatalf("%s: %v", sb.Name, err)
		}
		out[sb.Name] = s
	}
	return out
}

func TestMessageCatalogScale(t *testing.T) {
	// F1: "Around 50 different types of messages are used in the
	// protocol."
	n := len(Messages())
	if n < 45 || n > 55 {
		t.Fatalf("catalog has %d messages, want around 50", n)
	}
}

func TestMessageClassesAndLookup(t *testing.T) {
	if !IsRequest("readex") || !IsRequest("sinv") || !IsRequest("mread") {
		t.Fatal("request classification broken")
	}
	if !IsResponse("idone") || !IsResponse("compl") || !IsResponse("retry") {
		t.Fatal("response classification broken")
	}
	if IsRequest("idone") || IsResponse("readex") || IsRequest("nosuch") {
		t.Fatal("negative classification broken")
	}
	if !CarriesData("data") || CarriesData("compl") {
		t.Fatal("data classification broken")
	}
	if !IsRequest("wb") || !CarriesData("wb") {
		t.Fatal("wb must be a data-carrying request")
	}
	for _, m := range Messages() {
		if IsRequest(m.Name) == IsResponse(m.Name) {
			t.Fatalf("%s is not exactly one of request and response", m.Name)
		}
	}
}

func TestRegisterFuncs(t *testing.T) {
	funcs := map[string]sqlmini.Func{}
	RegisterFuncs(func(name string, fn sqlmini.Func) {
		funcs[name] = fn
	})
	for _, name := range []string{"isrequest", "isresponse", "carriesdata", "isbusy"} {
		if funcs[name] == nil {
			t.Fatalf("%s not registered", name)
		}
	}
	v, err := funcs["isrequest"]([]rel.Value{rel.S("readex")})
	if err != nil || !v.Bool() {
		t.Fatalf("isrequest(readex) = %v, %v", v, err)
	}
	v, err = funcs["isrequest"]([]rel.Value{rel.Null()})
	if err != nil || v.Bool() {
		t.Fatalf("isrequest(NULL) = %v, %v", v, err)
	}
	if _, err := funcs["isbusy"](nil); err == nil {
		t.Fatal("wrong arity must error")
	}
	v, err = funcs["isbusy"]([]rel.Value{rel.S("Busy-rx-sd")})
	if err != nil || !v.Bool() {
		t.Fatalf("isbusy = %v, %v", v, err)
	}
}

func TestBusyStateCatalog(t *testing.T) {
	// C2: "includes around 40 Busy states".
	states := BusyStates()
	if len(states) != 40 {
		t.Fatalf("busy states = %d, want 40", len(states))
	}
	seen := map[string]bool{}
	for _, s := range states {
		if seen[s] {
			t.Fatalf("duplicate busy state %s", s)
		}
		seen[s] = true
		if !IsBusyState(s) {
			t.Fatalf("IsBusyState(%s) = false", s)
		}
		if BusyTxn(s) == "" {
			t.Fatalf("busy state %s does not parse", s)
		}
	}
	if IsBusyState("MESI") || IsBusyState("I") {
		t.Fatal("stable states misclassified as busy")
	}
	if BusyState("rx", "sd") != "Busy-rx-sd" {
		t.Fatal("BusyState naming broken")
	}
	if BusyTxn("Busy-rx-sd") != "rx" {
		t.Fatal("busy state parsing broken")
	}
	if TxnRequest("rx") != "readex" || TxnRequest("zz") != "" {
		t.Fatal("TxnRequest broken")
	}
}

func TestTableDScale(t *testing.T) {
	// C2: "This table is made of 30 columns and 500 rows and includes
	// around 40 Busy states and considers all transaction interleavings."
	d, stats := directoryTable(t)
	if d.NumCols() != 30 {
		t.Fatalf("D has %d columns, want 30", d.NumCols())
	}
	if d.NumRows() < 400 || d.NumRows() > 600 {
		t.Fatalf("D has %d rows, want around 500", d.NumRows())
	}
	if stats.Rows != d.NumRows() {
		t.Fatal("stats mismatch")
	}
	// Every busy state appears as an observed input state.
	used := map[string]bool{}
	for i := 0; i < d.NumRows(); i++ {
		if v := d.Get(i, "bdirst"); !v.IsNull() && IsBusyState(v.Str()) {
			used[v.Str()] = true
		}
	}
	for _, b := range BusyStates() {
		if !used[b] {
			t.Errorf("busy state %s never observed in D", b)
		}
	}
}

func TestTableDNoDeadRows(t *testing.T) {
	// Every row must take some action: emit a message or update a
	// directory structure.
	d, _ := directoryTable(t)
	for i := 0; i < d.NumRows(); i++ {
		if d.Get(i, "locmsg").IsNull() && d.Get(i, "remmsg").IsNull() &&
			d.Get(i, "memmsg").IsNull() && d.Get(i, "dirupd").IsNull() &&
			d.Get(i, "bdirupd").IsNull() {
			t.Fatalf("dead row %d: %v", i, rowOf(d, i))
		}
	}
}

func TestTableDMessageColumnsConsistent(t *testing.T) {
	// A message output column is NULL iff its src/dest/rsrc columns are.
	d, _ := directoryTable(t)
	for i := 0; i < d.NumRows(); i++ {
		for _, p := range []string{"locmsg", "remmsg", "memmsg"} {
			isNull := d.Get(i, p).IsNull()
			for _, suffix := range []string{"src", "dest", "rsrc"} {
				if d.Get(i, p+suffix).IsNull() != isNull {
					t.Fatalf("row %d: %s set but %s%s inconsistent", i, p, p, suffix)
				}
			}
		}
	}
}

func TestFigure2ReadExFlowRows(t *testing.T) {
	// F2/F3: the published readex transaction at D. From SI, sinv and
	// mread are issued in parallel and the entry waits in Busy-sd; data
	// moves it to Busy-s, the last idone to Busy-d; completion sets MESI
	// and transfers ownership (repl).
	d, _ := directoryTable(t)
	find := func(pred func(r rel.Row) bool) rel.Row {
		t.Helper()
		got := d.Select(pred)
		if got.NumRows() != 1 {
			t.Fatalf("expected exactly one matching row, got %d", got.NumRows())
		}
		return got.Row(0)
	}
	// Request row (Fig. 2 steps 1-2).
	req := find(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("readex")) && r.Get("dirst").Equal(rel.S(DirSI))
	})
	if !req.Get("remmsg").Equal(rel.S("sinv")) || !req.Get("memmsg").Equal(rel.S("mread")) {
		t.Fatalf("readex@SI must send sinv and mread: remmsg=%v memmsg=%v", req.Get("remmsg"), req.Get("memmsg"))
	}
	if !req.Get("nxtbdirst").Equal(rel.S("Busy-rx-sd")) {
		t.Fatalf("readex@SI must enter Busy-sd: %v", req.Get("nxtbdirst"))
	}
	// Busy-sd --data--> Busy-s.
	dataRow := find(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("mdata")) && r.Get("bdirst").Equal(rel.S("Busy-rx-sd"))
	})
	if !dataRow.Get("nxtbdirst").Equal(rel.S("Busy-rx-s")) {
		t.Fatalf("Busy-sd + data must move to Busy-s: %v", dataRow.Get("nxtbdirst"))
	}
	// Busy-sd --idone(last)--> Busy-d.
	idoneRow := find(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("idone")) &&
			r.Get("bdirst").Equal(rel.S("Busy-rx-sd")) &&
			r.Get("bdirpv").Equal(rel.S(PVOne))
	})
	if !idoneRow.Get("nxtbdirst").Equal(rel.S("Busy-rx-d")) {
		t.Fatalf("Busy-sd + last idone must move to Busy-d: %v", idoneRow.Get("nxtbdirst"))
	}
	// Completion: directory updated to MESI with ownership transfer.
	doneRow := find(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("mdata")) && r.Get("bdirst").Equal(rel.S("Busy-rx-d"))
	})
	if !doneRow.Get("nxtdirst").Equal(rel.S(DirMESI)) || !doneRow.Get("nxtdirpv").Equal(rel.S(PVRepl)) {
		t.Fatalf("readex completion must set MESI/repl: nxtdirst=%v nxtdirpv=%v", doneRow.Get("nxtdirst"), doneRow.Get("nxtdirpv"))
	}
	if !doneRow.Get("locmsg").Equal(rel.S("datax")) {
		t.Fatalf("readex completion must send exclusive data: %v", doneRow.Get("locmsg"))
	}
}

func TestSection42DependencyRowExists(t *testing.T) {
	// §4.2 R2: the directory processes an idone and emits an mread — the
	// readex-against-modified-owner race.
	d, _ := directoryTable(t)
	got := d.Select(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("idone")) &&
			r.Get("inmsgsrc").Equal(rel.S(RoleRemote)) &&
			r.Get("memmsg").Equal(rel.S("mread"))
	})
	if got.Empty() {
		t.Fatal("no idone -> mread row in D; the §4.2 dependency cannot arise")
	}
}

func TestRetryDiscipline(t *testing.T) {
	// §4.3 invariant 2 precondition: every request that hits the busy
	// directory is answered with retry, and only those.
	d, _ := directoryTable(t)
	for i := 0; i < d.NumRows(); i++ {
		msg := d.Get(i, "inmsg").Str()
		if !IsRequest(msg) {
			continue
		}
		busyHit := d.Get(i, "bdirhit").Equal(rel.S("hit"))
		isRetry := d.Get(i, "locmsg").Equal(rel.S("retry"))
		if busyHit && !isRetry {
			t.Fatalf("row %d: request %s at busy line not retried", i, msg)
		}
		if !busyHit && isRetry {
			t.Fatalf("row %d: request %s retried with no conflict", i, msg)
		}
	}
}

func TestDeallocAlwaysOnCompl(t *testing.T) {
	// §4.3 invariant 2: "a busy directory entry is de-allocated only when
	// a transaction completes" — in this protocol, exactly on a compl.
	d, _ := directoryTable(t)
	for i := 0; i < d.NumRows(); i++ {
		if d.Get(i, "bdiralloc").Equal(rel.S("dealloc")) {
			if !d.Get(i, "inmsg").Equal(rel.S("compl")) {
				t.Fatalf("row %d deallocates on %v, not compl", i, d.Get(i, "inmsg"))
			}
		}
	}
}

func TestEightControllerTables(t *testing.T) {
	// C6: "A total of 8 controller database tables were automatically
	// generated."
	specs := controllerSpecs(t)
	if len(specs) != 8 {
		t.Fatalf("controllers = %d, want 8", len(specs))
	}
	for name, s := range specs {
		if name == DirectoryTable {
			continue // solved separately (expensive), checked above
		}
		tab, _, err := constraint.Solve(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tab.Empty() {
			t.Fatalf("%s generated empty", name)
		}
		// No dead rows in any controller: at least one output column set.
		outs := map[string]bool{}
		for _, c := range s.Columns() {
			if c.Kind == constraint.Output {
				outs[c.Name] = true
			}
		}
		for i := 0; i < tab.NumRows(); i++ {
			alive := false
			for c := range outs {
				if !tab.Get(i, c).IsNull() {
					alive = true
					break
				}
			}
			if !alive {
				t.Fatalf("%s row %d is dead: %v", name, i, rowOf(tab, i))
			}
		}
	}
}

func TestMemoryControllerR1Row(t *testing.T) {
	// §4.2 R1: (wb, home, home) in -> (compl, home, home) out at M.
	spec, _, err := buildMemory()
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := constraint.Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Select(func(r rel.Row) bool {
		return r.Get("inmsg").Equal(rel.S("wb")) &&
			r.Get("bankst").Equal(rel.S("ready")) &&
			r.Get("dirmsg").Equal(rel.S("compl"))
	})
	if got.NumRows() != 1 {
		t.Fatalf("wb -> compl rows = %d, want 1", got.NumRows())
	}
}

func TestCacheControllerMESI(t *testing.T) {
	spec, _, err := buildCache()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := constraint.Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(msg, st, outCol, outVal, nxt string) {
		t.Helper()
		got := c.Select(func(r rel.Row) bool {
			return r.Get("inmsg").Equal(rel.S(msg)) && r.Get("cachest").Equal(rel.S(st))
		})
		if got.NumRows() != 1 {
			t.Fatalf("%s@%s rows = %d", msg, st, got.NumRows())
		}
		if !got.Get(0, outCol).Equal(rel.S(outVal)) || !got.Get(0, "nxtcachest").Equal(rel.S(nxt)) {
			t.Fatalf("%s@%s: %s=%v nxt=%v, want %s/%s",
				msg, st, outCol, got.Get(0, outCol), got.Get(0, "nxtcachest"), outVal, nxt)
		}
	}
	check("prread", "I", "busmsg", "read", "IS_d")
	check("prwrite", "S", "busmsg", "upgrade", "SM_w")
	check("sinv", "M", "snpmsg", "swbdata", "I")
	check("sinv", "MI_w", "snpmsg", "idone", "II_s") // the §4.2 race
	check("sread", "M", "snpmsg", "sdata", "S")
	check("data", "IS_d", "prresp", "pdata", "S")
	check("retry", "IM_d", "prresp", "pstall", "I")
}

func TestChannelAssignments(t *testing.T) {
	for _, name := range AssignmentNames() {
		v, err := BuildAssignment(name)
		if err != nil {
			t.Fatal(err)
		}
		if v.Empty() || v.NumCols() != 4 {
			t.Fatalf("%s: V is %dx%d", name, v.NumRows(), v.NumCols())
		}
		// Every (m, s, d) appears at most once.
		seen := map[string]bool{}
		for i := 0; i < v.NumRows(); i++ {
			k := v.Get(i, "m").Str() + "/" + v.Get(i, "s").Str() + "/" + v.Get(i, "d").Str()
			if seen[k] {
				t.Fatalf("%s: duplicate assignment %s", name, k)
			}
			seen[k] = true
		}
	}
	if _, err := BuildAssignment("nope"); err == nil {
		t.Fatal("unknown assignment must error")
	}
}

func TestAssignmentStory(t *testing.T) {
	// The §4.2 narrative encoded in the three variants.
	initial, _ := BuildAssignment(AssignInitial)
	vc4, _ := BuildAssignment(AssignVC4)
	fixed, _ := BuildAssignment(AssignFixed)

	chanOf := func(v *rel.Table, m, s, d string) string {
		got := v.Select(func(r rel.Row) bool {
			return r.Get("m").Equal(rel.S(m)) && r.Get("s").Equal(rel.S(s)) && r.Get("d").Equal(rel.S(d))
		})
		if got.Empty() {
			return ""
		}
		return got.Get(0, "v").Str()
	}
	if chanOf(initial, "mread", RoleHome, RoleHome) != VC0 {
		t.Fatal("initial: dir->mem must share VC0")
	}
	if chanOf(vc4, "mread", RoleHome, RoleHome) != VC4 || chanOf(vc4, "wb", RoleHome, RoleHome) != VC4 {
		t.Fatal("vc4: dir->mem must ride VC4")
	}
	if chanOf(vc4, "compl", RoleHome, RoleHome) != VC2 {
		t.Fatal("vc4: memory compl must ride VC2 (Fig. 4)")
	}
	if chanOf(fixed, "mread", RoleHome, RoleHome) != "" {
		t.Fatal("fixed: mread must be off the channel graph (dedicated path)")
	}
	if chanOf(fixed, "compl", RoleLocal, RoleHome) != VC5 {
		t.Fatal("fixed: final compl must ride VC5")
	}
}

func TestFigure1Table(t *testing.T) {
	f1 := Figure1Table()
	if f1.NumRows() != len(Messages()) {
		t.Fatal("Figure 1 table row count")
	}
	got := f1.Select(func(r rel.Row) bool { return r.Get("message").Equal(rel.S("readex")) })
	if got.NumRows() != 1 || !got.Get(0, "class").Equal(rel.S("request")) {
		t.Fatalf("readex row: %s", got)
	}
}

func TestPVAndStateCatalogs(t *testing.T) {
	if len(DirStates()) != 3 || len(PVEncodings()) != 3 || len(PVOps()) != 6 {
		t.Fatal("state catalogs wrong")
	}
	if len(CacheStates()) != 4 || len(CacheTransients()) != 5 {
		t.Fatal("cache state catalogs wrong")
	}
	if len(Roles()) != 3 {
		t.Fatal("role catalog wrong")
	}
	if len(TxnTags()) != 15 {
		t.Fatalf("txn tags = %d", len(TxnTags()))
	}
}

// rowOf decodes row i of t, for failure messages and row-level fixtures.
func rowOf(t *rel.Table, i int) []rel.Value {
	out := make([]rel.Value, t.NumCols())
	for j := range out {
		out[j] = t.At(i, j)
	}
	return out
}
