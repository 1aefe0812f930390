package protocol

import (
	"coherdb/internal/constraint"
	"coherdb/internal/rel"
)

// A second protocol, demonstrating the paper's generality claim (§6: "The
// approach can be easily applied to other cache coherence protocols such as
// those described in [2, 10]"): a broadcast snooping MSI protocol in the
// style of Sorin et al. [10]. Three controllers — the bus arbiter, the
// snooping cache and the snooping memory — specified exactly like the ASURA
// tables: column tables plus compiled column constraints.
//
// Bus transactions: gets (get shared), getx (get exclusive), upgr (upgrade)
// and wbb (writeback). The arbiter serializes one transaction at a time;
// every cache observes each transaction tagged own/other; the owner (or
// memory, when no cache owns) supplies data on the response channel.
const (
	SnoopBusTable    = "SB"
	SnoopCacheTable  = "SC"
	SnoopMemoryTable = "SM"
)

// Snooping MSI cache states, with the transient states of a split-
// transaction bus: IS_b/IM_b/SM_b await the own transaction's data or
// order, MI_b awaits the writeback's completion.
func snoopCacheStates() []string {
	return []string{"M", "S", "I", "IS_b", "IM_b", "SM_b", "MI_b"}
}

var snoopBusRequests = []string{"gets", "getx", "upgr", "wbb"}

// BuildSnoopBusSpec constructs the bus arbiter table SB: it serializes
// requests (one outstanding transaction) and broadcasts each granted
// transaction to the snoopers and to memory.
func BuildSnoopBusSpec() (*constraint.Spec, error) {
	b := newCtrl(SnoopBusTable)
	b.input("inmsg", true, append(append([]string{}, snoopBusRequests...), "bdone")...)
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleHome)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("busst", true, "free", "granted")
	b.msgOutput("bcast", snoopBusRequests,
		[]string{RoleHome}, []string{RoleRemote}, []string{QReq})
	b.msgOutput("nackmsg", []string{"bretry"},
		[]string{RoleHome}, []string{RoleLocal}, []string{QResp})
	b.output("nxtbusst", "free", "granted")

	b.spec.MustConstrain("inmsgsrc",
		`inmsg = "bdone" ? inmsgsrc = "home" : inmsgsrc = "local"`)
	b.spec.MustConstrain("inmsgrsrc",
		`inmsg = "bdone" ? inmsgrsrc = "respq" : inmsgrsrc = "reqq"`)

	for _, q := range snoopBusRequests {
		set := msgSet("bcast", q, RoleHome, RoleRemote, QReq)
		set["nxtbusst"] = "granted"
		b.rule(q+"@free", all(eq("inmsg", q), eq("busst", "free")), set)
		b.rule(q+"@granted", all(eq("inmsg", q), eq("busst", "granted")),
			msgSet("nackmsg", "bretry", RoleHome, RoleLocal, QResp))
	}
	// The responder's completion frees the bus.
	b.rule("bdone@granted", all(eq("inmsg", "bdone"), eq("busst", "granted")),
		map[string]string{"nxtbusst": "free"})
	return specOnly(b.finish("busst"))
}

// BuildSnoopCacheSpec constructs the snooping cache table SC: processor
// operations issue bus requests; observed transactions are tagged own or
// other, and the protocol's MSI transitions follow Sorin et al.'s tables.
func BuildSnoopCacheSpec() (*constraint.Spec, error) {
	b := newCtrl(SnoopCacheTable)
	states := snoopCacheStates()
	b.input("inmsg", true,
		"prread", "prwrite", "previct",
		"gets", "getx", "upgr", "wbb",
		"bdata")
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal, RoleRemote)
	b.input("inmsgrsrc", true, QReq, QResp)
	// who tags an observed bus transaction: the cache's own request
	// coming back in bus order, or another cache's.
	b.input("who", false, "own", "other")
	b.input("cachest", true, states...)
	b.msgOutput("busmsg", snoopBusRequests,
		[]string{RoleLocal}, []string{RoleHome}, []string{QReq})
	b.msgOutput("dresp", []string{"bdata", "bdone"},
		[]string{RoleRemote}, []string{RoleHome}, []string{QResp})
	b.output("prresp", "pdata", "pdone", "pstall")
	b.output("nxtcachest", states...)

	b.spec.MustConstrain("inmsgsrc",
		in("inmsg", "prread", "prwrite", "previct")+
			` ? inmsgsrc = "local" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgdest",
		in("inmsg", "prread", "prwrite", "previct")+
			` ? inmsgdest = "local" : inmsgdest = "remote"`)
	b.spec.MustConstrain("inmsgrsrc",
		`inmsg = "bdata" ? inmsgrsrc = "respq" : inmsgrsrc = "reqq"`)
	b.spec.MustConstrain("who",
		in("inmsg", "gets", "getx", "upgr", "wbb")+` ? who <> NULL : who = NULL`)

	whenPr := func(msg, st string) string { return all(eq("inmsg", msg), eq("cachest", st)) }
	whenBus := func(msg, who, st string) string {
		return all(eq("inmsg", msg), eq("who", who), eq("cachest", st))
	}
	req := func(msg, nxt string) map[string]string {
		set := msgSet("busmsg", msg, RoleLocal, RoleHome, QReq)
		set["nxtcachest"] = nxt
		return set
	}
	pr := func(resp, nxt string) map[string]string {
		return map[string]string{"prresp": resp, "nxtcachest": nxt}
	}
	supply := func(nxt string) map[string]string {
		set := msgSet("dresp", "bdata", RoleRemote, RoleHome, QResp)
		set["nxtcachest"] = nxt
		return set
	}

	// Processor operations.
	b.rule("prread@I", whenPr("prread", "I"), req("gets", "IS_b"))
	b.rule("prread@S", whenPr("prread", "S"), pr("pdata", "S"))
	b.rule("prread@M", whenPr("prread", "M"), pr("pdata", "M"))
	b.rule("prwrite@I", whenPr("prwrite", "I"), req("getx", "IM_b"))
	b.rule("prwrite@S", whenPr("prwrite", "S"), req("upgr", "SM_b"))
	b.rule("prwrite@M", whenPr("prwrite", "M"), pr("pdone", "M"))
	b.rule("previct@S", whenPr("previct", "S"), pr("pdone", "I"))
	b.rule("previct@M", whenPr("previct", "M"), req("wbb", "MI_b"))
	b.rule("previct@I", whenPr("previct", "I"), pr("pdone", "I"))
	for _, st := range []string{"IS_b", "IM_b", "SM_b", "MI_b"} {
		for _, op := range []string{"prread", "prwrite", "previct"} {
			b.rule(op+"@"+st, whenPr(op, st), pr("pstall", st))
		}
	}

	// Own transactions observed in bus order.
	b.rule("own-gets@IS_b", whenBus("gets", "own", "IS_b"), map[string]string{"nxtcachest": "IS_b"})
	b.rule("own-getx@IM_b", whenBus("getx", "own", "IM_b"), map[string]string{"nxtcachest": "IM_b"})
	b.rule("own-upgr@SM_b", whenBus("upgr", "own", "SM_b"),
		merge(supply("M"), map[string]string{"prresp": "pdone", "dresp": "bdone"}))
	b.rule("own-wbb@MI_b", whenBus("wbb", "own", "MI_b"),
		merge(supply("I"), map[string]string{"prresp": "pdone"})) // data to memory
	// Data for the own transaction arrives on the response channel.
	b.rule("bdata@IS_b", all(eq("inmsg", "bdata"), eq("cachest", "IS_b")), pr("pdata", "S"))
	b.rule("bdata@IM_b", all(eq("inmsg", "bdata"), eq("cachest", "IM_b")), pr("pdone", "M"))

	// Other caches' transactions: the owner supplies and downgrades;
	// sharers invalidate on exclusive requests.
	b.rule("other-gets@M", whenBus("gets", "other", "M"), supply("S"))
	b.rule("other-gets@S", whenBus("gets", "other", "S"), map[string]string{"nxtcachest": "S"})
	b.rule("other-gets@I", whenBus("gets", "other", "I"), map[string]string{"nxtcachest": "I"})
	b.rule("other-getx@M", whenBus("getx", "other", "M"), supply("I"))
	b.rule("other-getx@S", whenBus("getx", "other", "S"), map[string]string{"nxtcachest": "I"})
	b.rule("other-getx@I", whenBus("getx", "other", "I"), map[string]string{"nxtcachest": "I"})
	b.rule("other-upgr@S", whenBus("upgr", "other", "S"), map[string]string{"nxtcachest": "I"})
	b.rule("other-upgr@I", whenBus("upgr", "other", "I"), map[string]string{"nxtcachest": "I"})
	b.rule("other-wbb@I", whenBus("wbb", "other", "I"), map[string]string{"nxtcachest": "I"})
	// A racing own transaction observed from another cache aborts ours.
	b.rule("other-getx@IS_b", whenBus("getx", "other", "IS_b"), map[string]string{"nxtcachest": "IS_b"})
	b.rule("other-getx@SM_b", whenBus("getx", "other", "SM_b"), map[string]string{"nxtcachest": "IM_b"})
	b.rule("other-gets@SM_b", whenBus("gets", "other", "SM_b"), map[string]string{"nxtcachest": "SM_b"})
	b.rule("other-upgr@SM_b", whenBus("upgr", "other", "SM_b"), map[string]string{"nxtcachest": "IM_b"})
	b.rule("other-gets@MI_b", whenBus("gets", "other", "MI_b"), supply("MI_b"))
	b.rule("other-getx@MI_b", whenBus("getx", "other", "MI_b"), supply("I"))

	return specOnly(b.finish("cachest"))
}

// BuildSnoopMemorySpec constructs the snooping memory table SM: memory
// observes every transaction and supplies data when no cache owns the line
// (tracked by a single owned bit, as in [10]'s memory-side filter).
func BuildSnoopMemorySpec() (*constraint.Spec, error) {
	b := newCtrl(SnoopMemoryTable)
	b.input("inmsg", true, append(append([]string{}, snoopBusRequests...), "bdata")...)
	b.input("inmsgsrc", true, RoleHome, RoleRemote)
	b.input("inmsgdest", true, RoleRemote, RoleHome)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("owned", true, "yes", "no")
	b.msgOutput("dresp", []string{"bdata"},
		[]string{RoleHome}, []string{RoleHome}, []string{QResp})
	b.msgOutput("donemsg", []string{"bdone"},
		[]string{RoleHome}, []string{RoleHome}, []string{QResp})
	b.output("nxtowned", "yes", "no")

	b.spec.MustConstrain("inmsgsrc",
		`inmsg = "bdata" ? inmsgsrc = "remote" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgdest",
		`inmsg = "bdata" ? inmsgdest = "home" : inmsgdest = "remote"`)
	b.spec.MustConstrain("inmsgrsrc",
		`inmsg = "bdata" ? inmsgrsrc = "respq" : inmsgrsrc = "reqq"`)

	whenAt := func(msg, owned string) string { return all(eq("inmsg", msg), eq("owned", owned)) }
	data := func(owned string) map[string]string {
		set := msgSet("dresp", "bdata", RoleHome, RoleHome, QResp)
		for k, v := range msgSet("donemsg", "bdone", RoleHome, RoleHome, QResp) {
			set[k] = v
		}
		set["nxtowned"] = owned
		return set
	}
	done := func(owned string) map[string]string {
		set := msgSet("donemsg", "bdone", RoleHome, RoleHome, QResp)
		set["nxtowned"] = owned
		return set
	}
	// Unowned lines are supplied by memory; owned lines by the owner (the
	// observing memory just updates its filter and completes the bus
	// phase when the owner's data passes by).
	b.rule("gets@no", whenAt("gets", "no"), data("no"))
	b.rule("gets@yes", whenAt("gets", "yes"), done("no")) // owner downgrades; line now clean-shared
	b.rule("getx@no", whenAt("getx", "no"), data("yes"))
	b.rule("getx@yes", whenAt("getx", "yes"), done("yes")) // ownership migrates
	b.rule("upgr@no", whenAt("upgr", "no"), done("yes"))
	b.rule("upgr@yes", whenAt("upgr", "yes"), done("yes"))
	b.rule("wbb@no", whenAt("wbb", "no"), done("no"))
	b.rule("wbb@yes", whenAt("wbb", "yes"), done("no"))
	// The owner's supplied data is absorbed into memory.
	b.rule("bdata@yes", whenAt("bdata", "yes"), map[string]string{"nxtowned": "yes"})
	b.rule("bdata@no", whenAt("bdata", "no"), map[string]string{"nxtowned": "no"})
	return specOnly(b.finish("owned"))
}

// SnoopSpecBuilders returns the snooping protocol's controller builders.
func SnoopSpecBuilders() []struct {
	Name  string
	Build func() (*constraint.Spec, error)
} {
	return []struct {
		Name  string
		Build func() (*constraint.Spec, error)
	}{
		{SnoopBusTable, BuildSnoopBusSpec},
		{SnoopCacheTable, BuildSnoopCacheSpec},
		{SnoopMemoryTable, BuildSnoopMemorySpec},
	}
}

// BuildSnoopAssignment constructs the snooping system's channel assignment:
// the request channel BUS0 into the arbiter, the ordered broadcast channel
// BUS1 toward the snoopers, and the data/completion response channel BUS2.
func BuildSnoopAssignment() *rel.Table {
	t := rel.MustNewTable("V", "m", "s", "d", "v")
	add := func(m, s, d, v string) {
		t.MustInsert(rel.S(m), rel.S(s), rel.S(d), rel.S(v))
	}
	for _, m := range snoopBusRequests {
		add(m, RoleLocal, RoleHome, "BUS0")  // request to the arbiter
		add(m, RoleHome, RoleRemote, "BUS1") // the ordered broadcast
	}
	add("bdata", RoleRemote, RoleHome, "BUS2") // owner's data toward memory/requester
	add("bdata", RoleHome, RoleHome, "BUS2")   // memory's data
	add("bdone", RoleRemote, RoleHome, "BUS2")
	add("bdone", RoleHome, RoleHome, "BUS2")
	add("bretry", RoleHome, RoleLocal, "BUS2")
	return t
}
