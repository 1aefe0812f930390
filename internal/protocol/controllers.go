package protocol

import (
	"coherdb/internal/constraint"
)

// The seven controllers besides the directory (§2: "several controllers
// including the directory, node, remote access cache, cache, and memory
// controllers that are distributed and replicated throughout the system";
// §6: "a total of 8 controller database tables"). Each is specified the
// same way as D: column tables plus column constraints compiled from
// transition rules.
//
// Message (source, destination) role pairs follow the deadlock model of
// §4.1: only inter-quad hops and the home directory<->memory hop occupy
// virtual channels, so they carry distinct role pairs (local->home,
// home->remote, remote->home, home->local, home->home). Node-internal hops
// (cache <-> node interface <-> processor) are written local->local and are
// never assigned a channel.
const (
	MemoryTable    = "M"
	CacheTable     = "C"
	NodeTable      = "N"
	RACTable       = "R"
	IOBridgeTable  = "IO"
	InterruptTable = "INT"
	SyncTable      = "SY"
)

// ctrlBuilder carries the shared boilerplate of the small controller specs.
type ctrlBuilder struct {
	spec *constraint.Spec
	rs   *RuleSet
	outs []string
}

func newCtrl(name string) *ctrlBuilder {
	s := constraint.NewSpec(name)
	RegisterFuncs(s.RegisterFunc)
	return &ctrlBuilder{spec: s, rs: NewRuleSet()}
}

func (b *ctrlBuilder) input(name string, noNull bool, vals ...string) {
	if err := b.spec.AddColumn(constraint.Column{Name: name, Kind: constraint.Input, Values: vals, NoNull: noNull}); err != nil {
		panic(err)
	}
}

func (b *ctrlBuilder) output(name string, vals ...string) {
	if err := b.spec.AddColumn(constraint.Column{Name: name, Kind: constraint.Output, Values: vals}); err != nil {
		panic(err)
	}
	b.outs = append(b.outs, name)
}

// msgOutput declares a message output column group (msg, src, dest, rsrc).
func (b *ctrlBuilder) msgOutput(prefix string, msgs []string, srcs, dests []string, rsrcs []string) {
	b.output(prefix, msgs...)
	b.output(prefix+"src", srcs...)
	b.output(prefix+"dest", dests...)
	b.output(prefix+"rsrc", rsrcs...)
}

func (b *ctrlBuilder) rule(id, when string, set map[string]string) {
	b.rs.Add(Rule{ID: id, When: when, Set: set})
}

func (b *ctrlBuilder) finish(legalityCol string) (*constraint.Spec, *RuleSet, error) {
	if err := b.rs.CompileInto(b.spec, legalityCol, b.outs); err != nil {
		return nil, nil, err
	}
	return b.spec, b.rs, nil
}

// msgSet builds a message output group value set.
func msgSet(prefix, msg, src, dest, rsrc string) map[string]string {
	return map[string]string{
		prefix: msg, prefix + "src": src, prefix + "dest": dest, prefix + "rsrc": rsrc,
	}
}

// buildMemory constructs the home memory controller table M. It
// services the directory's memory accesses and forwarded writebacks; the
// §4.2 dependency row R1 — (wb, home, home) in, (compl, home, home) out —
// comes from this table.
func buildMemory() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(MemoryTable)
	b.input("inmsg", true, "mread", "mwrite", "mrmw", "mwrpart", "wb")
	b.input("inmsgsrc", true, RoleHome)
	b.input("inmsgdest", true, RoleHome)
	b.input("inmsgrsrc", true, QMem)
	b.input("bankst", true, "ready", "refresh")
	b.msgOutput("dirmsg", []string{"mdata", "mdone", "compl", "retry"},
		[]string{RoleHome}, []string{RoleHome}, []string{QResp})
	b.msgOutput("dirmsg2", []string{"mdone"},
		[]string{RoleHome}, []string{RoleHome}, []string{QResp})
	b.output("dramcmd", "rcas", "wcas", "rmw")

	type mrow struct{ in, out, out2, cmd string }
	rows := []mrow{
		{"mread", "mdata", "", "rcas"},
		{"mwrite", "mdone", "", "wcas"},
		{"mrmw", "mdata", "mdone", "rmw"},
		{"mwrpart", "mdone", "", "wcas"},
		{"wb", "compl", "", "wcas"},
	}
	for _, r := range rows {
		set := msgSet("dirmsg", r.out, RoleHome, RoleHome, QResp)
		set["dramcmd"] = r.cmd
		if r.out2 != "" {
			for k, v := range msgSet("dirmsg2", r.out2, RoleHome, RoleHome, QResp) {
				set[k] = v
			}
		}
		b.rule(r.in+"@ready", all(eq("inmsg", r.in), eq("bankst", "ready")), set)
		// During a refresh the access is bounced back to the directory.
		b.rule(r.in+"@refresh", all(eq("inmsg", r.in), eq("bankst", "refresh")),
			msgSet("dirmsg", "retry", RoleHome, RoleHome, QResp))
	}
	return b.finish("inmsg")
}

// buildCache constructs the per-processor cache controller table C: the
// 4-state MESI protocol [7] with the transient states of a real pipeline.
// In the deadlock analysis this controller acts in the remote role: its
// snoop rows (sinv in -> idone out, etc.) induce the remote->home
// dependencies. Requests toward the node interface and responses delivered
// by it are node-internal (local->local). A retried transaction aborts to
// a stable state and the processor re-executes the operation, so retries
// never induce a channel dependency.
func buildCache() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(CacheTable)
	states := append(CacheStates(), CacheTransients()...)
	b.input("inmsg", true,
		"prread", "prwrite", "previct", "prflush",
		"sinv", "sread", "sflush",
		"data", "datax", "upgack", "wbcompl", "retry", "nack")
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal, RoleRemote)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("cachest", true, states...)
	b.msgOutput("busmsg", []string{"read", "readex", "upgrade", "wb", "replhint"},
		[]string{RoleLocal}, []string{RoleLocal}, []string{QReq})
	b.msgOutput("snpmsg", []string{"idone", "sdone", "sdata", "swbdata"},
		[]string{RoleRemote}, []string{RoleHome}, []string{QResp})
	b.output("prresp", "pdata", "pdone", "pstall")
	b.output("nxtcachest", states...)

	// Snoops arrive from home over the inter-quad channel; everything else
	// is node-internal.
	b.spec.MustConstrain("inmsgsrc",
		in("inmsg", "sinv", "sread", "sflush")+
			` ? inmsgsrc = "home" : inmsgsrc = "local"`)
	b.spec.MustConstrain("inmsgdest",
		in("inmsg", "sinv", "sread", "sflush")+
			` ? inmsgdest = "remote" : inmsgdest = "local"`)
	b.spec.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)

	pr := func(st string) map[string]string { return map[string]string{"prresp": "pdata", "nxtcachest": st} }
	done := func(st string) map[string]string { return map[string]string{"prresp": "pdone", "nxtcachest": st} }
	abort := func(st string) map[string]string { return map[string]string{"prresp": "pstall", "nxtcachest": st} }
	buscall := func(msg, nxt string) map[string]string {
		set := msgSet("busmsg", msg, RoleLocal, RoleLocal, QReq)
		set["nxtcachest"] = nxt
		return set
	}
	snoop := func(msg, nxt string) map[string]string {
		set := msgSet("snpmsg", msg, RoleRemote, RoleHome, QResp)
		set["nxtcachest"] = nxt
		return set
	}
	whenAt := func(msg, st string) string { return all(eq("inmsg", msg), eq("cachest", st)) }

	// Processor loads.
	b.rule("prread@I", whenAt("prread", CacheI), buscall("read", "IS_d"))
	for _, st := range []string{CacheS, CacheE, CacheM} {
		b.rule("prread@"+st, whenAt("prread", st), pr(st))
	}
	for _, st := range CacheTransients() {
		b.rule("prread@"+st, whenAt("prread", st), abort(st))
	}
	// Processor stores.
	b.rule("prwrite@I", whenAt("prwrite", CacheI), buscall("readex", "IM_d"))
	b.rule("prwrite@S", whenAt("prwrite", CacheS), buscall("upgrade", "SM_w"))
	b.rule("prwrite@E", whenAt("prwrite", CacheE), done(CacheM))
	b.rule("prwrite@M", whenAt("prwrite", CacheM), done(CacheM))
	for _, st := range CacheTransients() {
		b.rule("prwrite@"+st, whenAt("prwrite", st), abort(st))
	}
	// Evictions and flushes. Evicting an invalid line is a no-op.
	b.rule("previct@S", whenAt("previct", CacheS), buscall("replhint", CacheI))
	b.rule("previct@E", whenAt("previct", CacheE), buscall("replhint", CacheI))
	b.rule("previct@M", whenAt("previct", CacheM), buscall("wb", "MI_w"))
	b.rule("previct@I", whenAt("previct", CacheI), done(CacheI))
	b.rule("prflush@M", whenAt("prflush", CacheM), buscall("wb", "MI_w"))
	b.rule("prflush@S", whenAt("prflush", CacheS), buscall("replhint", CacheI))
	b.rule("prflush@E", whenAt("prflush", CacheE), buscall("replhint", CacheI))
	b.rule("prflush@I", whenAt("prflush", CacheI), done(CacheI))

	// Snoops. A modified owner answers sinv with its data attached
	// (swbdata); with a writeback already in flight (MI_w) it answers
	// idone — the §4.2 race.
	b.rule("sinv@S", whenAt("sinv", CacheS), snoop("idone", CacheI))
	b.rule("sinv@E", whenAt("sinv", CacheE), snoop("idone", CacheI))
	b.rule("sinv@M", whenAt("sinv", CacheM), snoop("swbdata", CacheI))
	b.rule("sinv@MI_w", whenAt("sinv", "MI_w"), snoop("idone", "II_s"))
	b.rule("sinv@IS_d", whenAt("sinv", "IS_d"), snoop("idone", "IS_d"))
	// A racing replacement hint can leave the line already invalid, and a
	// racing exclusive request can catch an upgrade in flight; both
	// acknowledge the invalidation.
	b.rule("sinv@I", whenAt("sinv", CacheI), snoop("idone", CacheI))
	b.rule("sinv@SM_w", whenAt("sinv", "SM_w"), snoop("idone", "II_s"))
	// Snoop misses on the remaining transients answer benignly, as
	// hardware does: an invalidation finds nothing to invalidate, a read
	// finds nothing to supply.
	b.rule("sinv@IM_d", whenAt("sinv", "IM_d"), snoop("idone", "IM_d"))
	b.rule("sinv@II_s", whenAt("sinv", "II_s"), snoop("idone", "II_s"))
	for _, st := range []string{CacheI, "IS_d", "IM_d", "SM_w", "II_s"} {
		b.rule("sread@"+st, whenAt("sread", st), snoop("sdone", st))
	}
	b.rule("sflush@I", whenAt("sflush", CacheI), snoop("idone", CacheI))
	b.rule("sflush@IS_d", whenAt("sflush", "IS_d"), snoop("idone", "IS_d"))
	b.rule("sflush@IM_d", whenAt("sflush", "IM_d"), snoop("idone", "IM_d"))
	b.rule("sflush@SM_w", whenAt("sflush", "SM_w"), snoop("idone", "II_s"))
	b.rule("sflush@II_s", whenAt("sflush", "II_s"), snoop("idone", "II_s"))
	b.rule("sread@M", whenAt("sread", CacheM), snoop("sdata", CacheS))
	b.rule("sread@E", whenAt("sread", CacheE), snoop("sdone", CacheS))
	b.rule("sread@S", whenAt("sread", CacheS), snoop("sdone", CacheS))
	// A read snoop racing an in-flight writeback takes the dirty data and
	// the whole line: the owner's pending writeback will be retried and
	// dropped, so it must not keep a copy.
	b.rule("sread@MI_w", whenAt("sread", "MI_w"), snoop("swbdata", "II_s"))
	b.rule("sflush@M", whenAt("sflush", CacheM), snoop("sdata", CacheI))
	b.rule("sflush@E", whenAt("sflush", CacheE), snoop("sdata", CacheI))
	b.rule("sflush@S", whenAt("sflush", CacheS), snoop("idone", CacheI))
	b.rule("sflush@MI_w", whenAt("sflush", "MI_w"), snoop("swbdata", "II_s"))

	// Responses (delivered node-internally by N).
	b.rule("data@IS_d", whenAt("data", "IS_d"), pr(CacheS))
	b.rule("datax@IS_d", whenAt("datax", "IS_d"), pr(CacheE))
	b.rule("datax@IM_d", whenAt("datax", "IM_d"), done(CacheM))
	b.rule("upgack@SM_w", whenAt("upgack", "SM_w"), done(CacheM))
	b.rule("nack@SM_w", whenAt("nack", "SM_w"), abort(CacheI))
	b.rule("wbcompl@MI_w", whenAt("wbcompl", "MI_w"), done(CacheI))
	b.rule("wbcompl@II_s", whenAt("wbcompl", "II_s"), done(CacheI))
	b.rule("nack@MI_w", whenAt("nack", "MI_w"), done(CacheI))
	// Retried transactions abort; the processor re-executes.
	b.rule("retry@IS_d", whenAt("retry", "IS_d"), abort(CacheI))
	b.rule("retry@IM_d", whenAt("retry", "IM_d"), abort(CacheI))
	b.rule("retry@SM_w", whenAt("retry", "SM_w"), abort(CacheS))
	b.rule("retry@MI_w", whenAt("retry", "MI_w"), abort(CacheM))
	// A transaction invalidated by a racing snoop aborts to I.
	b.rule("retry@II_s", whenAt("retry", "II_s"), abort(CacheI))
	b.rule("nack@II_s", whenAt("nack", "II_s"), abort(CacheI))

	return b.finish("cachest")
}

// buildNode constructs the node interface controller table N: it owns
// the MSHRs, injects node requests into the network (local role), delivers
// completions node-internally, and closes each completed transaction with
// the final compl toward home (§4.3).
func buildNode() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(NodeTable)
	requests := []string{"read", "readex", "upgrade", "readinv", "wb", "pwb",
		"flush", "replhint", "prefetch", "ioread", "iowrite", "ucread",
		"ucwrite", "fetchadd", "sync", "intr"}
	completions := []string{"data", "datax", "upgack", "wbcompl", "flcompl",
		"iodata", "iocompl", "ucdata", "uccompl", "atdata", "pfdata",
		"syncack", "intrack", "replack", "nack", "retry"}
	b.input("inmsg", true, append(append([]string{}, requests...), completions...)...)
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal, RoleHome)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("mshrst", true, "idle", "pending")
	b.msgOutput("netmsg", append(append([]string{}, requests...), "compl"),
		[]string{RoleLocal}, []string{RoleHome}, []string{QReq, QResp})
	b.msgOutput("cresp", completions,
		[]string{RoleLocal}, []string{RoleLocal}, []string{QResp})
	b.output("nxtmshrst", "idle", "pending")

	// Requests arrive node-internally from the cache; completions arrive
	// from home over the inter-quad response channel.
	b.spec.MustConstrain("inmsgsrc",
		in("inmsg", requests...)+` ? inmsgsrc = "local" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgdest",
		`inmsgdest = "local"`)
	b.spec.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)

	// Requests: injected when an MSHR is free, bounced otherwise.
	for _, q := range requests {
		set := msgSet("netmsg", q, RoleLocal, RoleHome, QReq)
		set["nxtmshrst"] = "pending"
		b.rule(q+"@idle", all(eq("inmsg", q), eq("mshrst", "idle")), set)
		b.rule(q+"@pending", all(eq("inmsg", q), eq("mshrst", "pending")),
			msgSet("cresp", "retry", RoleLocal, RoleLocal, QResp))
	}
	// Completions: delivered to the cache; transactions with a -c state at
	// the directory are closed with the final compl (§4.3).
	needsCompl := map[string]bool{
		"data": true, "datax": true, "upgack": true, "wbcompl": true,
		"flcompl": true, "iodata": true, "iocompl": true, "ucdata": true,
		"uccompl": true, "atdata": true, "pfdata": true, "syncack": true,
		"intrack": true,
	}
	for _, c := range completions {
		set := msgSet("cresp", c, RoleLocal, RoleLocal, QResp)
		set["nxtmshrst"] = "idle"
		if needsCompl[c] {
			for k, v := range msgSet("netmsg", "compl", RoleLocal, RoleHome, QResp) {
				set[k] = v
			}
		}
		b.rule(c+"@pending", all(eq("inmsg", c), eq("mshrst", "pending")), set)
	}
	return b.finish("mshrst")
}

// buildRAC constructs the remote access cache controller table R: the
// quad-level cache that satisfies local misses to remote lines and fields
// incoming snoops for them.
func buildRAC() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(RACTable)
	states := []string{"I", "S", "M", "IS_p", "IM_p", "MI_p"}
	b.input("inmsg", true,
		"read", "readex", "wb",
		"data", "datax", "wbcompl", "retry",
		"sinv", "sread", "sflush")
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal, RoleRemote)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("racst", true, states...)
	b.msgOutput("netmsg", []string{"read", "readex", "wb"},
		[]string{RoleLocal}, []string{RoleHome}, []string{QReq})
	b.msgOutput("snpmsg", []string{"idone", "sdone", "sdata", "swbdata"},
		[]string{RoleRemote}, []string{RoleHome}, []string{QResp})
	b.msgOutput("locresp", []string{"data", "datax", "retry"},
		[]string{RoleLocal}, []string{RoleLocal}, []string{QResp})
	b.output("nxtracst", states...)

	b.spec.MustConstrain("inmsgsrc",
		in("inmsg", "read", "readex", "wb")+` ? inmsgsrc = "local" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgdest",
		in("inmsg", "sinv", "sread", "sflush")+` ? inmsgdest = "remote" : inmsgdest = "local"`)
	b.spec.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)

	whenAt := func(msg, st string) string { return all(eq("inmsg", msg), eq("racst", st)) }
	fwd := func(msg, nxt string) map[string]string {
		set := msgSet("netmsg", msg, RoleLocal, RoleHome, QReq)
		set["nxtracst"] = nxt
		return set
	}
	hit := func(msg, nxt string) map[string]string {
		set := msgSet("locresp", msg, RoleLocal, RoleLocal, QResp)
		set["nxtracst"] = nxt
		return set
	}
	snp := func(msg, nxt string) map[string]string {
		set := msgSet("snpmsg", msg, RoleRemote, RoleHome, QResp)
		set["nxtracst"] = nxt
		return set
	}

	// Local misses to remote lines.
	b.rule("read@I", whenAt("read", "I"), fwd("read", "IS_p"))
	b.rule("read@S", whenAt("read", "S"), hit("data", "S"))
	b.rule("read@M", whenAt("read", "M"), hit("data", "M"))
	b.rule("readex@I", whenAt("readex", "I"), fwd("readex", "IM_p"))
	b.rule("readex@S", whenAt("readex", "S"), fwd("readex", "IM_p"))
	b.rule("readex@M", whenAt("readex", "M"), hit("datax", "M"))
	b.rule("wb@M", whenAt("wb", "M"), fwd("wb", "MI_p"))
	for _, st := range []string{"IS_p", "IM_p", "MI_p"} {
		for _, q := range []string{"read", "readex", "wb"} {
			b.rule(q+"@"+st, whenAt(q, st), hit("retry", st))
		}
	}
	// Network responses; a retried miss aborts and the node re-issues.
	b.rule("data@IS_p", whenAt("data", "IS_p"), hit("data", "S"))
	b.rule("datax@IM_p", whenAt("datax", "IM_p"), hit("datax", "M"))
	b.rule("wbcompl@MI_p", whenAt("wbcompl", "MI_p"), hit("data", "I"))
	b.rule("retry@IS_p", whenAt("retry", "IS_p"), hit("retry", "I"))
	b.rule("retry@IM_p", whenAt("retry", "IM_p"), hit("retry", "I"))
	b.rule("retry@MI_p", whenAt("retry", "MI_p"), hit("retry", "M"))
	// Incoming snoops for remote lines cached here.
	b.rule("sinv@S", whenAt("sinv", "S"), snp("idone", "I"))
	b.rule("sinv@M", whenAt("sinv", "M"), snp("swbdata", "I"))
	b.rule("sinv@MI_p", whenAt("sinv", "MI_p"), snp("idone", "MI_p"))
	b.rule("sread@M", whenAt("sread", "M"), snp("sdata", "S"))
	b.rule("sread@S", whenAt("sread", "S"), snp("sdone", "S"))
	b.rule("sflush@M", whenAt("sflush", "M"), snp("sdata", "I"))
	b.rule("sflush@S", whenAt("sflush", "S"), snp("idone", "I"))

	return b.finish("racst")
}

// buildIOBridge constructs the I/O bridge controller table IO.
func buildIOBridge() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(IOBridgeTable)
	b.input("inmsg", true, "ioread", "iowrite", "iodata", "iocompl", "intr")
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal, RoleRemote)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("iost", true, "idle", "rdpend", "wrpend")
	b.msgOutput("netmsg", []string{"ioread", "iowrite", "intrack"},
		[]string{RoleLocal, RoleRemote}, []string{RoleHome}, []string{QReq, QResp})
	b.msgOutput("devresp", []string{"iodata", "iocompl", "retry"},
		[]string{RoleLocal}, []string{RoleLocal}, []string{QResp})
	b.output("nxtiost", "idle", "rdpend", "wrpend")

	b.spec.MustConstrain("inmsgsrc",
		in("inmsg", "ioread", "iowrite")+` ? inmsgsrc = "local" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgdest",
		`inmsg = "intr" ? inmsgdest = "remote" : inmsgdest = "local"`)
	b.spec.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)

	whenAt := func(msg, st string) string { return all(eq("inmsg", msg), eq("iost", st)) }
	b.rule("ioread@idle", whenAt("ioread", "idle"),
		merge(msgSet("netmsg", "ioread", RoleLocal, RoleHome, QReq), map[string]string{"nxtiost": "rdpend"}))
	b.rule("iowrite@idle", whenAt("iowrite", "idle"),
		merge(msgSet("netmsg", "iowrite", RoleLocal, RoleHome, QReq), map[string]string{"nxtiost": "wrpend"}))
	for _, st := range []string{"rdpend", "wrpend"} {
		b.rule("ioread@"+st, whenAt("ioread", st), msgSet("devresp", "retry", RoleLocal, RoleLocal, QResp))
		b.rule("iowrite@"+st, whenAt("iowrite", st), msgSet("devresp", "retry", RoleLocal, RoleLocal, QResp))
	}
	b.rule("iodata@rdpend", whenAt("iodata", "rdpend"),
		merge(msgSet("devresp", "iodata", RoleLocal, RoleLocal, QResp), map[string]string{"nxtiost": "idle"}))
	b.rule("iocompl@wrpend", whenAt("iocompl", "wrpend"),
		merge(msgSet("devresp", "iocompl", RoleLocal, RoleLocal, QResp), map[string]string{"nxtiost": "idle"}))
	// A forwarded interrupt is delivered to the device and acknowledged
	// back to home over the response channel.
	b.rule("intr@idle", whenAt("intr", "idle"),
		msgSet("netmsg", "intrack", RoleRemote, RoleHome, QResp))
	b.rule("intr@rdpend", whenAt("intr", "rdpend"),
		msgSet("netmsg", "intrack", RoleRemote, RoleHome, QResp))
	b.rule("intr@wrpend", whenAt("intr", "wrpend"),
		msgSet("netmsg", "intrack", RoleRemote, RoleHome, QResp))
	return b.finish("iost")
}

// buildInterrupt constructs the interrupt delivery controller table INT.
func buildInterrupt() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(InterruptTable)
	b.input("inmsg", true, "intr", "intrack")
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("intst", true, "idle", "masked", "pending")
	b.msgOutput("netmsg", []string{"intr"},
		[]string{RoleLocal}, []string{RoleHome}, []string{QReq})
	b.msgOutput("cpuresp", []string{"intrack", "retry"},
		[]string{RoleLocal}, []string{RoleLocal}, []string{QResp})
	b.output("nxtintst", "idle", "masked", "pending")

	b.spec.MustConstrain("inmsgsrc",
		`inmsg = "intr" ? inmsgsrc = "local" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)

	whenAt := func(msg, st string) string { return all(eq("inmsg", msg), eq("intst", st)) }
	b.rule("intr@idle", whenAt("intr", "idle"),
		merge(msgSet("netmsg", "intr", RoleLocal, RoleHome, QReq), map[string]string{"nxtintst": "pending"}))
	b.rule("intr@masked", whenAt("intr", "masked"), msgSet("cpuresp", "retry", RoleLocal, RoleLocal, QResp))
	b.rule("intr@pending", whenAt("intr", "pending"), msgSet("cpuresp", "retry", RoleLocal, RoleLocal, QResp))
	b.rule("intrack@pending", whenAt("intrack", "pending"),
		merge(msgSet("cpuresp", "intrack", RoleLocal, RoleLocal, QResp), map[string]string{"nxtintst": "idle"}))
	return b.finish("intst")
}

// buildSync constructs the barrier/fence controller table SY.
func buildSync() (*constraint.Spec, *RuleSet, error) {
	b := newCtrl(SyncTable)
	b.input("inmsg", true, "sync", "syncack")
	b.input("inmsgsrc", true, RoleLocal, RoleHome)
	b.input("inmsgdest", true, RoleLocal)
	b.input("inmsgrsrc", true, QReq, QResp)
	b.input("syncst", true, "idle", "draining")
	b.msgOutput("netmsg", []string{"sync"},
		[]string{RoleLocal}, []string{RoleHome}, []string{QReq})
	b.msgOutput("cpuresp", []string{"syncack", "retry"},
		[]string{RoleLocal}, []string{RoleLocal}, []string{QResp})
	b.output("nxtsyncst", "idle", "draining")

	b.spec.MustConstrain("inmsgsrc",
		`inmsg = "sync" ? inmsgsrc = "local" : inmsgsrc = "home"`)
	b.spec.MustConstrain("inmsgrsrc",
		`isrequest(inmsg) ? inmsgrsrc = "reqq" : inmsgrsrc = "respq"`)

	whenAt := func(msg, st string) string { return all(eq("inmsg", msg), eq("syncst", st)) }
	b.rule("sync@idle", whenAt("sync", "idle"),
		merge(msgSet("netmsg", "sync", RoleLocal, RoleHome, QReq), map[string]string{"nxtsyncst": "draining"}))
	b.rule("sync@draining", whenAt("sync", "draining"), msgSet("cpuresp", "retry", RoleLocal, RoleLocal, QResp))
	b.rule("syncack@draining", whenAt("syncack", "draining"),
		merge(msgSet("cpuresp", "syncack", RoleLocal, RoleLocal, QResp), map[string]string{"nxtsyncst": "idle"}))
	return b.finish("syncst")
}

// controller is one controller table's builder, which also returns the
// rule set it compiled into the spec.
type controller struct {
	name  string
	build func() (*constraint.Spec, *RuleSet, error)
}

// controllers lists the eight controller builders in a stable order.
func controllers() []controller {
	return []controller{
		{DirectoryTable, buildDirectory},
		{MemoryTable, buildMemory},
		{CacheTable, buildCache},
		{NodeTable, buildNode},
		{RACTable, buildRAC},
		{IOBridgeTable, buildIOBridge},
		{InterruptTable, buildInterrupt},
		{SyncTable, buildSync},
	}
}

// specOnly drops a builder's rule set.
func specOnly(s *constraint.Spec, _ *RuleSet, err error) (*constraint.Spec, error) { return s, err }

// SpecBuilders returns the eight controller spec builders keyed by table
// name, in a stable order.
func SpecBuilders() []struct {
	Name  string
	Build func() (*constraint.Spec, error)
} {
	cs := controllers()
	out := make([]struct {
		Name  string
		Build func() (*constraint.Spec, error)
	}, len(cs))
	for i, c := range cs {
		out[i].Name = c.name
		out[i].Build = func() (*constraint.Spec, error) { return specOnly(c.build()) }
	}
	return out
}
