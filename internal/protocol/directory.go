package protocol

import (
	"coherdb/internal/constraint"
)

// The directory controller table D (§2.1, §3): 30 columns — four message
// columns each with source/destination/resource columns, the directory and
// busy-directory lookup results and states, and the next-state and
// allocation/update outputs.
//
// Input columns (10):
//
//	inmsg, inmsgsrc, inmsgdest, inmsgrsrc  — the incoming message
//	bdirhit, bdirst, bdirpv                — busy directory lookup + entry
//	dirhit, dirst, dirpv                   — directory lookup + entry
//
// Output columns (20):
//
//	locmsg/src/dest/rsrc  — response toward the requesting (local) node
//	remmsg/src/dest/rsrc  — snoop or forward toward remote node(s)
//	memmsg/src/dest/rsrc  — access to the home memory controller
//	nxtdirst, nxtdirpv, diralloc, dirupd       — directory update
//	nxtbdirst, nxtbdirpv, bdiralloc, bdirupd   — busy directory update
const (
	DirectoryTable = "D"
)

// dirInputMessages lists the message types the directory controller accepts.
func dirInputMessages() []string {
	return []string{
		// requests from the local node
		"read", "readex", "upgrade", "readinv", "wb", "pwb", "flush",
		"replhint", "prefetch", "ioread", "iowrite", "ucread", "ucwrite",
		"fetchadd", "sync", "intr",
		// snoop responses from remote nodes
		"idone", "sdone", "sdata", "swbdata", "intrack",
		// memory responses from the home memory controller
		"mdata", "mdone",
		// completion: from home memory for a forwarded wb, and from the
		// local requestor to close a transaction's -c state (§4.3)
		"compl",
	}
}

// cacheableRequests are the requests that consult the directory (carry a
// cache-line address tracked by the directory).
func cacheableRequests() []string {
	return []string{"read", "readex", "upgrade", "readinv", "wb", "pwb", "flush", "replhint", "prefetch"}
}

// uncachedRequests are memory/I/O requests that bypass the directory entry
// but still serialize through the busy directory.
func uncachedRequests() []string {
	return []string{"ioread", "iowrite", "ucread", "ucwrite", "fetchadd"}
}

// specialRequests neither consult the directory nor conflict on addresses.
func specialRequests() []string { return []string{"sync", "intr"} }

// addressedBusyStates returns the busy states that occupy a line address —
// every busy state except the sync and interrupt families.
func addressedBusyStates() []string {
	var out []string
	for _, b := range BusyStates() {
		if t := BusyTxn(b); t != "sy" && t != "in" {
			out = append(out, b)
		}
	}
	return out
}

// uncachedBusyStates returns the busy states of the uncached / I/O / atomic
// transaction families, the only ones an uncached request can conflict with.
func uncachedBusyStates() []string {
	var out []string
	for _, b := range BusyStates() {
		switch BusyTxn(b) {
		case "ior", "iow", "ucr", "ucw", "at":
			out = append(out, b)
		}
	}
	return out
}

// buildDirectory constructs the constraint specification for table D.
// Solving it with constraint.Solve yields the full directory controller
// table (~30 columns × ~450-500 rows, 40 busy states).
func buildDirectory() (*constraint.Spec, *RuleSet, error) {
	s := constraint.NewSpec(DirectoryTable)
	RegisterFuncs(s.RegisterFunc)

	// ---- input columns --------------------------------------------------
	inMsgs := dirInputMessages()
	if err := s.AddColumn(constraint.Column{Name: "inmsg", Kind: constraint.Input, Values: inMsgs, NoNull: true}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "inmsgsrc", Kind: constraint.Input, Values: Roles(), NoNull: true}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "inmsgdest", Kind: constraint.Input, Values: []string{RoleHome}, NoNull: true}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "inmsgrsrc", Kind: constraint.Input, Values: []string{QReq, QResp}, NoNull: true}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "bdirhit", Kind: constraint.Input, Values: []string{"hit", "miss"}, NoNull: true}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "bdirst", Kind: constraint.Input, Values: append([]string{DirI}, BusyStates()...)}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "bdirpv", Kind: constraint.Input, Values: PVEncodings()}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "dirhit", Kind: constraint.Input, Values: []string{"hit", "miss"}}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "dirst", Kind: constraint.Input, Values: DirStates()}); err != nil {
		return nil, nil, err
	}
	if err := s.AddColumn(constraint.Column{Name: "dirpv", Kind: constraint.Input, Values: PVEncodings()}); err != nil {
		return nil, nil, err
	}

	// ---- output columns -------------------------------------------------
	locResponses := []string{
		"data", "datax", "compl", "retry", "nack", "upgack", "wbcompl",
		"flcompl", "iodata", "iocompl", "ucdata", "uccompl", "atdata",
		"pfdata", "syncack", "intrack", "replack",
	}
	addOut := func(name string, vals ...string) error {
		return s.AddColumn(constraint.Column{Name: name, Kind: constraint.Output, Values: vals})
	}
	outCols := []struct {
		name string
		vals []string
	}{
		{"locmsg", locResponses},
		{"locmsgsrc", []string{RoleHome}},
		{"locmsgdest", []string{RoleLocal}},
		{"locmsgrsrc", []string{QLoc}},
		{"remmsg", []string{"sinv", "sread", "sflush", "intr"}},
		{"remmsgsrc", []string{RoleHome}},
		{"remmsgdest", []string{RoleRemote}},
		{"remmsgrsrc", []string{QRem}},
		{"memmsg", []string{"mread", "mwrite", "mrmw", "mwrpart", "wb"}},
		{"memmsgsrc", []string{RoleHome}},
		{"memmsgdest", []string{RoleHome}},
		{"memmsgrsrc", []string{QMem}},
		{"nxtdirst", DirStates()},
		{"nxtdirpv", PVOps()},
		{"diralloc", []string{"alloc", "dealloc"}},
		{"dirupd", []string{"upd"}},
		{"nxtbdirst", append([]string{DirI}, BusyStates()...)},
		{"nxtbdirpv", []string{PVLoad, PVDec}},
		{"bdiralloc", []string{"alloc", "dealloc"}},
		{"bdirupd", []string{"upd"}},
	}
	for _, c := range outCols {
		if err := addOut(c.name, c.vals...); err != nil {
			return nil, nil, err
		}
	}

	// ---- per-column input constraints (early pruning, paper §3) ---------
	snoopResponses := []string{"idone", "sdone", "sdata", "swbdata", "intrack"}
	s.MustConstrain("inmsgsrc",
		in("inmsg", snoopResponses...)+` ? inmsgsrc = "remote" : `+
			in("inmsg", "mdata", "mdone")+` ? inmsgsrc = "home" : `+
			// compl closes a transaction (from local) or completes a
			// forwarded wb (from home memory).
			`inmsg = "compl" ? `+in("inmsgsrc", RoleLocal, RoleHome)+` : inmsgsrc = "local"`)
	s.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)
	s.MustConstrain("bdirhit",
		`isresponse(inmsg) ? bdirhit = "hit" : bdirhit <> NULL`)
	s.MustConstrain("bdirst", bdirstConstraint())
	s.MustConstrain("bdirpv",
		// Only invalidation responses are counted; an idone from a lone
		// owner (w states) always finds a count of one.
		`inmsg = "idone" and `+in("bdirst", BusyState("rx", "w"), BusyState("ri", "w"))+
			` ? bdirpv = "one" : inmsg = "idone" ? `+in("bdirpv", PVOne, PVGone)+` : bdirpv = NULL`)
	s.MustConstrain("dirhit",
		all(`isrequest(inmsg)`, eq("bdirhit", "miss"), in("inmsg", cacheableRequests()...))+
			` ? dirhit <> NULL : dirhit = NULL`)
	s.MustConstrain("dirst",
		`dirhit = "hit" ? `+in("dirst", DirSI, DirMESI)+` : dirhit = "miss" ? dirst = "I" : dirst = NULL`)
	s.MustConstrain("dirpv",
		`dirst = "I" ? dirpv = "zero" : dirst = "SI" ? dirpv = "gone" : dirst = "MESI" ? dirpv = "one" : dirpv = NULL`)

	// ---- transition rules -> output constraints --------------------------
	rs := DirectoryRules()
	if err := rs.CompileInto(s, "", outputNames(outCols)); err != nil {
		return nil, nil, err
	}
	return s, rs, nil
}

func outputNames(cols []struct {
	name string
	vals []string
}) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}

// respBusyStates maps each response message the directory accepts to the
// busy states at which it is legal. complStates/complHomeStates split the
// two compl sources.
func respBusyStates() map[string][]string {
	complStates := []string{}
	for _, txn := range TxnTags() {
		complStates = append(complStates, BusyState(txn, "c"))
	}
	return map[string][]string{
		"mdata": {
			BusyState("rd", "d"),
			BusyState("rx", "sd"), BusyState("rx", "d"),
			BusyState("ri", "sd"), BusyState("ri", "d"),
			BusyState("pf", "d"), BusyState("ior", "d"), BusyState("ucr", "d"),
			BusyState("at", "dm"), BusyState("at", "d"),
		},
		"mdone": {
			BusyState("pw", "m"), BusyState("fl", "m"),
			BusyState("iow", "m"), BusyState("ucw", "m"),
			BusyState("at", "dm"), BusyState("at", "m"),
		},
		"idone": {
			BusyState("rx", "sd"), BusyState("rx", "s"), BusyState("rx", "w"),
			BusyState("ri", "sd"), BusyState("ri", "s"), BusyState("ri", "w"),
			BusyState("ug", "s"),
			BusyState("fl", "s"),
		},
		"sdone":   {BusyState("rd", "w")},
		"sdata":   {BusyState("rd", "w"), BusyState("fl", "sm")},
		"swbdata": {BusyState("rd", "w"), BusyState("rx", "w"), BusyState("ri", "w"), BusyState("fl", "sm")},
		"intrack": {BusyState("in", "a")},
		"compl":   complStates, // from local; the wb-m case is handled separately
	}
}

// bdirstConstraint builds the busy-directory state constraint: which busy
// states each incoming message may legally observe.
func bdirstConstraint() string {
	respStates := respBusyStates()
	expr := ""
	// compl from the home memory controller completes a forwarded wb; from
	// the local node it closes a transaction's -c state.
	expr += all(eq("inmsg", "compl"), eq("inmsgsrc", RoleHome)) +
		" ? " + eq("bdirst", BusyState("wb", "m")) + " : "
	for _, m := range []string{"mdata", "mdone", "idone", "sdone", "sdata", "swbdata", "intrack", "compl"} {
		expr += eq("inmsg", m) + " ? " + in("bdirst", respStates[m]...) + " : "
	}
	// Requests: a busy hit on a cacheable request observes the concrete
	// conflicting busy state (all transaction interleavings, §3); an
	// uncached request conflicts with the uncached/atomic families; a
	// busy hit on a special request retries regardless (dontcare); a
	// busy miss observes I.
	expr += all(eq("bdirhit", "hit"), in("inmsg", cacheableRequests()...)) +
		" ? " + in("bdirst", addressedBusyStates()...) + " : " +
		all(eq("bdirhit", "hit"), in("inmsg", uncachedRequests()...)) +
		" ? " + in("bdirst", uncachedBusyStates()...) + " : " +
		eq("bdirhit", "hit") + ` ? bdirst = NULL : bdirst = "I"`
	return expr
}
