package sim

import (
	"fmt"
	"sort"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// dirEntry is the concrete directory state the hardware keeps beside the
// table: the stable state and the identities behind the presence vector.
type dirEntry struct {
	st      string
	sharers map[EntityID]bool
}

// busyEntry is one busy-directory entry: the transaction's current busy
// state, the pending response count, and the requester the completion goes
// back to.
type busyEntry struct {
	st        string
	pending   int
	requester EntityID
}

// dirCtl executes the generated directory table D.
type dirCtl struct {
	sys   *System
	match *rel.Matcher
	dir   map[Addr]*dirEntry
	busy  map[Addr]*busyEntry
	// touched marks the addresses whose directory or busy entry
	// applyState changed (see the StateCodec type comment).
	touched addrMarks
}

var dirInputs = []string{
	"inmsg", "inmsgsrc", "inmsgdest", "inmsgrsrc",
	"bdirhit", "bdirst", "bdirpv", "dirhit", "dirst", "dirpv",
}

// Positions in a directory key: D's inputs in dirInputs order, then the
// two Figure 5 queue statuses, which only the implementation binds.
const (
	kInmsg = iota
	kInmsgsrc
	kInmsgdest
	kInmsgrsrc
	kBdirhit
	kBdirst
	kBdirpv
	kDirhit
	kDirst
	kDirpv
	kQstatus
	kDqstatus
	dirKeyLen
)

// dirKey is one directory lookup's input codes; zero slots are NULL.
type dirKey [dirKeyLen]uint32

func newDirCtl(s *System, tab *rel.Table) (*dirCtl, error) {
	if tab == nil {
		return nil, fmt.Errorf("%w: D", ErrBadTable)
	}
	m, err := rel.NewMatcher(tab, dirInputs)
	if err != nil {
		return nil, err
	}
	return &dirCtl{
		sys:   s,
		match: m,
		dir:   make(map[Addr]*dirEntry),
		busy:  make(map[Addr]*busyEntry),
	}, nil
}

// SetOwner initializes a line as exclusively owned (scenario setup).
func (d *dirCtl) SetOwner(a Addr, owner EntityID) {
	d.dir[a] = &dirEntry{st: protocol.DirMESI, sharers: map[EntityID]bool{owner: true}}
}

// SetShared initializes a line as shared by the given nodes.
func (d *dirCtl) SetShared(a Addr, sharers ...EntityID) {
	e := &dirEntry{st: protocol.DirSI, sharers: map[EntityID]bool{}}
	for _, s := range sharers {
		e.sharers[s] = true
	}
	d.dir[a] = e
}

// Entry returns the directory state and sharers of a line (tests).
func (d *dirCtl) Entry(a Addr) (string, []EntityID) {
	e, ok := d.dir[a]
	if !ok || e.st == protocol.DirI {
		return protocol.DirI, nil
	}
	var out []EntityID
	for s := range e.sharers {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return e.st, out
}

// BusyCount returns the number of live busy entries (tests).
func (d *dirCtl) BusyCount() int { return len(d.busy) }

// tick is a no-op for the spec-level engine (no internal queues).
func (d *dirCtl) tick() bool { return false }

// quiescent is always true for the spec-level engine.
func (d *dirCtl) quiescent() bool { return true }

// base exposes the shared directory state to the System (cloning,
// fingerprinting).
func (d *dirCtl) base() *dirCtl { return d }

var snoopResponseSet = map[string]bool{
	"idone": true, "sdone": true, "sdata": true, "swbdata": true, "intrack": true,
}

// srcRole codes the role the sender plays for this message, mirroring
// the table's inmsgsrc constraint.
func (d *dirCtl) srcRole(msg Message) uint32 {
	switch {
	case snoopResponseSet[msg.Type]:
		return d.sys.sym.remote
	case msg.From == Mem:
		return d.sys.sym.home
	default:
		return d.sys.sym.local
	}
}

// pvOf codes the presence vector a stable directory state implies.
func (d *dirCtl) pvOf(st string) uint32 {
	switch st {
	case protocol.DirSI:
		return d.sys.sym.pvGone
	case protocol.DirMESI:
		return d.sys.sym.pvOne
	default:
		return d.sys.sym.pvZero
	}
}

var cacheableSet = func() map[string]bool {
	m := map[string]bool{}
	for _, q := range []string{"read", "readex", "upgrade", "readinv", "wb", "pwb", "flush", "replhint", "prefetch"} {
		m[q] = true
	}
	return m
}()

// rowGetter abstracts a matched controller row: rel.Row satisfies it, and
// so does the implementation controller's output tuple (implRow).
type rowGetter interface {
	Get(col string) rel.Value
}

// keyFor builds the D-table input key for one message, together with the
// current busy and directory entries.
func (d *dirCtl) keyFor(msg Message) (dirKey, *busyEntry, *dirEntry, error) {
	isReq := protocol.IsRequest(msg.Type)
	be := d.busy[msg.Addr]
	de := d.dir[msg.Addr]
	sym := d.sys.sym

	var key dirKey
	key[kInmsg] = sym.code(msg.Type)
	key[kInmsgsrc] = d.srcRole(msg)
	key[kInmsgdest] = sym.home
	key[kInmsgrsrc] = sym.respQ
	key[kBdirhit] = sym.miss
	key[kBdirst] = sym.dirI
	if isReq {
		key[kInmsgrsrc] = sym.reqQ
	}
	if be != nil {
		key[kBdirhit] = sym.hit
		key[kBdirst] = sym.code(be.st)
		if msg.Type == "idone" {
			if be.pending <= 1 {
				key[kBdirpv] = sym.pvOne
			} else {
				key[kBdirpv] = sym.pvGone
			}
		}
	} else if !isReq {
		return key, nil, nil, fmt.Errorf("sim: response %s with no busy entry", msg)
	}
	if isReq && be == nil && cacheableSet[msg.Type] {
		st := protocol.DirI
		if de != nil {
			st = de.st
		}
		// The hardware compares the presence vector with the requester: a
		// writeback from a non-owner, or an upgrade/replacement hint from
		// a node no longer in the vector (it lost a race and was
		// invalidated), is stale and treated as a miss — the nack rows
		// answer it.
		switch msg.Type {
		case "wb", "pwb":
			if st == protocol.DirMESI && !de.sharers[msg.From] {
				st = protocol.DirI
			}
		case "upgrade", "replhint":
			if st == protocol.DirSI && !de.sharers[msg.From] {
				st = protocol.DirI
			}
		}
		if st == protocol.DirI {
			key[kDirhit] = sym.miss
		} else {
			key[kDirhit] = sym.hit
		}
		key[kDirst] = sym.code(st)
		key[kDirpv] = d.pvOf(st)
	}
	return key, be, de, nil
}

// requesterFor resolves the transaction's requester: the sender for
// requests, the busy entry's recorded requester for responses.
func (d *dirCtl) requesterFor(msg Message, be *busyEntry) EntityID {
	if !protocol.IsRequest(msg.Type) && be != nil {
		return be.requester
	}
	return msg.From
}

// outputsFor builds the outgoing message batch of a matched row, plus the
// snoop target list and whether a zero-target counting allocation needs a
// synthesized idone.
func (d *dirCtl) outputsFor(row rowGetter, msg Message, de *dirEntry, requester EntityID) (out []Message, snoopTargets []EntityID, loadWithNoTargets bool) {
	if m := row.Get("remmsg"); !m.IsNull() {
		snoopTargets = d.snoopTargets(msg, de, requester)
		for _, tgt := range snoopTargets {
			out = append(out, Message{
				Type: m.Str(), From: Dir, To: tgt, Addr: msg.Addr,
				VC: d.sys.vcOf(m.Str(), protocol.RoleHome, protocol.RoleRemote),
			})
		}
	}
	if m := row.Get("locmsg"); !m.IsNull() {
		out = append(out, Message{
			Type: m.Str(), From: Dir, To: requester, Addr: msg.Addr,
			VC: d.sys.vcOf(m.Str(), protocol.RoleHome, protocol.RoleLocal),
		})
	}
	if m := row.Get("memmsg"); !m.IsNull() {
		out = append(out, Message{
			Type: m.Str(), From: Dir, To: Mem, Addr: msg.Addr,
			VC: d.sys.vcOf(m.Str(), protocol.RoleHome, protocol.RoleHome),
		})
	}
	// Counting allocation with no snoop target (the requester is the only
	// sharer): the hardware sees an already-zero vector; we synthesize the
	// final idone over the internal path so the completion row fires.
	loadWithNoTargets = row.Get("nxtbdirpv").Equal(rel.S(protocol.PVLoad)) &&
		!row.Get("remmsg").IsNull() && len(snoopTargets) == 0
	if loadWithNoTargets {
		out = append(out, Message{Type: "idone", From: Dir, To: Dir, Addr: msg.Addr, VC: ""})
	}
	return out, snoopTargets, loadWithNoTargets
}

// process consumes one message; it returns false (leaving the message at
// the channel head) when the required output channel slots are unavailable.
func (d *dirCtl) process(msg Message) (bool, error) {
	key, be, de, err := d.keyFor(msg)
	if err != nil {
		return false, err
	}
	row, ok := d.sys.fire(d.match, key[:kQstatus])
	if !ok {
		return false, fmt.Errorf("%w: D input %v", ErrNoRow, d.sys.sym.describe(dirInputs, key[:kQstatus]))
	}
	requester := d.requesterFor(msg, be)
	out, snoopTargets, loadWithNoTargets := d.outputsFor(row, msg, de, requester)
	if !d.sys.canSendAll(out) {
		return false, nil
	}
	d.applyState(row, msg, be, de, requester, snoopTargets, loadWithNoTargets)
	d.sys.sendAll(out)
	return true, nil
}

// applyState applies a matched row's busy-directory and directory updates.
func (d *dirCtl) applyState(row rowGetter, msg Message, be *busyEntry, de *dirEntry, requester EntityID, snoopTargets []EntityID, loadWithNoTargets bool) {
	d.touched.mark(msg.Addr)
	// Apply busy-directory updates.
	switch {
	case row.Get("bdiralloc").Equal(rel.S("alloc")):
		nb := &busyEntry{st: row.Get("nxtbdirst").Str(), requester: requester}
		if row.Get("nxtbdirpv").Equal(rel.S(protocol.PVLoad)) {
			nb.pending = len(snoopTargets)
			if loadWithNoTargets {
				nb.pending = 1
			}
		}
		d.busy[msg.Addr] = nb
	case row.Get("bdiralloc").Equal(rel.S("dealloc")):
		delete(d.busy, msg.Addr)
	default:
		if be != nil {
			if v := row.Get("nxtbdirst"); !v.IsNull() {
				be.st = v.Str()
			}
			if row.Get("nxtbdirpv").Equal(rel.S(protocol.PVDec)) {
				be.pending--
			}
		}
	}

	// Apply directory updates.
	if row.Get("dirupd").Equal(rel.S("upd")) {
		if de == nil {
			de = &dirEntry{st: protocol.DirI, sharers: map[EntityID]bool{}}
			d.dir[msg.Addr] = de
		}
		actor := msg.From
		switch row.Get("nxtdirpv").Str() {
		case protocol.PVInc:
			de.sharers[requester] = true
		case protocol.PVRepl:
			de.sharers = map[EntityID]bool{requester: true}
		case protocol.PVClear:
			de.sharers = map[EntityID]bool{}
		case protocol.PVDec:
			delete(de.sharers, actor)
		case protocol.PVDRepl:
			delete(de.sharers, actor)
			if len(de.sharers) == 0 {
				de.st = protocol.DirI
			}
		}
		if v := row.Get("nxtdirst"); !v.IsNull() {
			de.st = v.Str()
		}
		if row.Get("diralloc").Equal(rel.S("dealloc")) || de.st == protocol.DirI && len(de.sharers) == 0 {
			if de.st == protocol.DirI {
				delete(d.dir, msg.Addr)
			}
		}
	}
}

// snoopTargets resolves which nodes a remmsg goes to: the owner under MESI,
// all sharers except the requester under SI, and a peer node for forwarded
// interrupts.
func (d *dirCtl) snoopTargets(msg Message, de *dirEntry, requester EntityID) []EntityID {
	if msg.Type == "intr" {
		for i := range d.sys.nodes {
			if NodeID(i) != requester {
				return []EntityID{NodeID(i)}
			}
		}
		return nil
	}
	if de == nil {
		return nil
	}
	var out []EntityID
	for sh := range de.sharers {
		if sh != requester {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
