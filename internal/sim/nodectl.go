package sim

import (
	"fmt"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// nodeCtl is one processor node: the cache controller (table C), the node
// interface with its MSHRs (table N), and a scripted processor that issues
// operations and re-executes them after aborts.
type nodeCtl struct {
	sys        *System
	id         int
	eid        EntityID
	cacheMatch *rel.Matcher
	mshrMatch  *rel.Matcher
	cache      map[Addr]string
	mshr       map[Addr]bool
	pendingOp  []Op
	attempts   map[Addr]int
	// outstanding maps an address to the op whose transaction is in
	// flight; issuedAt records when it started.
	outstanding map[Addr]Op
	issuedAt    map[Addr]int
	completed   int
	// touched marks the addresses whose cache, MSHR or outstanding entry
	// changed, and scriptTouched a changed pendingOp (see the StateCodec
	// type comment).
	touched       addrMarks
	scriptTouched bool
}

var cacheInputs = []string{"inmsg", "inmsgsrc", "inmsgdest", "inmsgrsrc", "cachest"}
var mshrInputs = []string{"inmsg", "inmsgsrc", "inmsgdest", "inmsgrsrc", "mshrst"}

func newNodeCtl(s *System, id int, cacheMatch, mshrMatch *rel.Matcher) *nodeCtl {
	return &nodeCtl{
		sys:         s,
		id:          id,
		eid:         NodeID(id),
		cacheMatch:  cacheMatch,
		mshrMatch:   mshrMatch,
		cache:       make(map[Addr]string),
		mshr:        make(map[Addr]bool),
		attempts:    make(map[Addr]int),
		outstanding: make(map[Addr]Op),
		issuedAt:    make(map[Addr]int),
	}
}

// Script appends operations to the node's processor script.
func (n *nodeCtl) Script(ops ...Op) { n.pendingOp = append(n.pendingOp, ops...) }

// SetCache initializes a line's cache state (scenario setup).
func (n *nodeCtl) SetCache(a Addr, st string) { n.cache[a] = st }

// CacheState returns the cache state of a line.
func (n *nodeCtl) CacheState(a Addr) string {
	if st, ok := n.cache[a]; ok {
		return st
	}
	return protocol.CacheI
}

func (n *nodeCtl) idle() bool {
	return len(n.pendingOp) == 0 && len(n.outstanding) == 0
}

func stable(st string) bool {
	switch st {
	case protocol.CacheI, protocol.CacheS, protocol.CacheE, protocol.CacheM:
		return true
	}
	return false
}

// lookupCache runs table C for one input message; src, dest and rsrc
// are symbol codes.
func (n *nodeCtl) lookupCache(inmsg string, src, dest, rsrc uint32, addr Addr) (rel.Row, bool) {
	sym := n.sys.sym
	key := [...]uint32{sym.code(inmsg), src, dest, rsrc, sym.code(n.CacheState(addr))}
	return n.sys.fire(n.cacheMatch, key[:])
}

// lookupMshr runs table N for one bus request or completion.
func (n *nodeCtl) lookupMshr(inmsg string, src, rsrc uint32, addr Addr) (rel.Row, string, bool) {
	sym := n.sys.sym
	mshrst, st := "idle", sym.idle
	if n.mshr[addr] {
		mshrst, st = "pending", sym.pending
	}
	key := [...]uint32{sym.code(inmsg), src, sym.local, rsrc, st}
	row, ok := n.sys.fire(n.mshrMatch, key[:])
	return row, mshrst, ok
}

// directOps are operations injected at the node interface without cache
// involvement: I/O, uncached, atomic and special transactions, plus the
// cache-management transactions a DMA engine or kernel would issue.
var directOps = map[string]bool{
	"ioread": true, "iowrite": true, "ucread": true, "ucwrite": true,
	"fetchadd": true, "sync": true, "intr": true,
	"flush": true, "readinv": true, "prefetch": true,
}

// issue attempts to start the first eligible scripted operation. It
// reports whether any progress was made.
func (n *nodeCtl) issue() (bool, error) {
	for i, op := range n.pendingOp {
		if n.sys.step < op.Delay {
			continue // choreographed ops wait for their cue
		}
		if !stable(n.CacheState(op.Addr)) || n.mshr[op.Addr] {
			continue // transaction in flight for this line
		}
		if max := n.maxRetries(); max > 0 && n.attempts[op.Addr] >= max {
			// Retry budget exhausted: drop the op.
			n.takeOp(i)
			return true, nil
		}
		if directOps[op.Kind] {
			done, err := n.inject(op.Kind, op.Addr)
			if err != nil {
				return false, err
			}
			if !done {
				continue
			}
			n.start(i, op)
			return true, nil
		}
		row, ok := n.lookupCache(op.Kind, n.sys.sym.local, n.sys.sym.local, n.sys.sym.reqQ, op.Addr)
		if !ok {
			return false, fmt.Errorf("%w: C op %s at %s", ErrNoRow, op.Kind, n.CacheState(op.Addr))
		}
		if bus := row.Get("busmsg"); !bus.IsNull() {
			done, err := n.inject(bus.Str(), op.Addr)
			if err != nil {
				return false, err
			}
			if !done {
				continue // channel full; retry next step
			}
			n.applyCacheRow(row, op.Addr)
			n.start(i, op)
			return true, nil
		}
		// Cache hit or no-op: completes immediately.
		n.applyCacheRow(row, op.Addr)
		n.completed++
		n.sys.stats.OpsCompleted++
		n.takeOp(i)
		n.sys.tracef("%s completes %s(%d) locally", n.eid, op.Kind, op.Addr)
		return true, nil
	}
	return false, nil
}

// start records the i-th scripted op, op, as an outstanding transaction.
func (n *nodeCtl) start(i int, op Op) {
	n.attempts[op.Addr]++
	n.setOutstanding(op.Addr, op)
	n.issuedAt[op.Addr] = n.sys.step
	n.takeOp(i)
	n.sys.tracef("%s issues %s(%d)", n.eid, op.Kind, op.Addr)
}

// takeOp removes the i-th scripted op.
func (n *nodeCtl) takeOp(i int) {
	n.pendingOp = append(n.pendingOp[:i], n.pendingOp[i+1:]...)
	n.scriptTouched = true
}

// setOutstanding records op as addr's outstanding transaction.
func (n *nodeCtl) setOutstanding(addr Addr, op Op) {
	n.outstanding[addr] = op
	n.touched.mark(addr)
}

// clearOutstanding ends addr's outstanding transaction.
func (n *nodeCtl) clearOutstanding(addr Addr) {
	delete(n.outstanding, addr)
	n.touched.mark(addr)
}

func (n *nodeCtl) maxRetries() int {
	// 0 means unlimited.
	return n.sys.cfg.MaxRetries
}

// inject drives table N with a cache bus request and sends the resulting
// network message; it reports false when the channel is full.
func (n *nodeCtl) inject(busmsg string, addr Addr) (bool, error) {
	row, mshrst, ok := n.lookupMshr(busmsg, n.sys.sym.local, n.sys.sym.reqQ, addr)
	if !ok {
		return false, fmt.Errorf("%w: N request %s@%s", ErrNoRow, busmsg, mshrst)
	}
	if net := row.Get("netmsg"); !net.IsNull() {
		msg := Message{
			Type: net.Str(), From: n.eid, To: Dir, Addr: addr,
			VC: n.sys.vcOf(net.Str(), protocol.RoleLocal, protocol.RoleHome),
		}
		if !n.sys.canSendAll([]Message{msg}) {
			return false, nil
		}
		n.sys.sendAll([]Message{msg})
	}
	if v := row.Get("nxtmshrst"); !v.IsNull() {
		n.setMshr(addr, v.Str())
	}
	return true, nil
}

func (n *nodeCtl) setMshr(addr Addr, st string) {
	if st == "pending" {
		n.mshr[addr] = true
	} else {
		delete(n.mshr, addr)
	}
	n.touched.mark(addr)
}

// applyCacheRow applies a C row's state transition and accounts op
// completion/abort via prresp.
func (n *nodeCtl) applyCacheRow(row rel.Row, addr Addr) {
	if v := row.Get("nxtcachest"); !v.IsNull() {
		if v.Str() == protocol.CacheI {
			delete(n.cache, addr)
		} else {
			n.cache[addr] = v.Str()
		}
		n.touched.mark(addr)
	}
}

// cacheRespSet are the completions table C handles directly.
var cacheRespSet = map[string]bool{
	"data": true, "datax": true, "upgack": true, "wbcompl": true,
	"retry": true, "nack": true,
}

// process consumes one network message addressed to this node.
func (n *nodeCtl) process(msg Message) (bool, error) {
	switch msg.Type {
	case "sinv", "sread", "sflush":
		row, ok := n.lookupCache(msg.Type, n.sys.sym.home, n.sys.sym.remote, n.sys.sym.reqQ, msg.Addr)
		if !ok {
			return false, fmt.Errorf("%w: C snoop %s at %s", ErrNoRow, msg.Type, n.CacheState(msg.Addr))
		}
		var out []Message
		if snp := row.Get("snpmsg"); !snp.IsNull() {
			out = append(out, Message{
				Type: snp.Str(), From: n.eid, To: Dir, Addr: msg.Addr,
				VC: n.sys.vcOf(snp.Str(), protocol.RoleRemote, protocol.RoleHome),
			})
		}
		if !n.sys.canSendAll(out) {
			return false, nil
		}
		n.applyCacheRow(row, msg.Addr)
		n.sys.sendAll(out)
		return true, nil
	case "intr":
		// Delivered to the I/O bridge; acknowledge to home.
		out := []Message{{
			Type: "intrack", From: n.eid, To: Dir, Addr: msg.Addr,
			VC: n.sys.vcOf("intrack", protocol.RoleRemote, protocol.RoleHome),
		}}
		if !n.sys.canSendAll(out) {
			return false, nil
		}
		n.sys.sendAll(out)
		return true, nil
	}

	// Completion path through the node interface.
	row, mshrst, ok := n.lookupMshr(msg.Type, n.sys.sym.home, n.sys.sym.respQ, msg.Addr)
	if !ok {
		return false, fmt.Errorf("%w: N response %s@%s", ErrNoRow, msg.Type, mshrst)
	}
	var out []Message
	if net := row.Get("netmsg"); !net.IsNull() {
		out = append(out, Message{
			Type: net.Str(), From: n.eid, To: Dir, Addr: msg.Addr,
			VC: n.sys.vcOf(net.Str(), protocol.RoleLocal, protocol.RoleHome),
		})
	}
	if !n.sys.canSendAll(out) {
		return false, nil
	}

	// Deliver the cresp to the cache when it is in a transient state and
	// the table handles the message; otherwise the node absorbs it. A
	// retry always means the transaction must be re-executed.
	cresp := row.Get("cresp")
	aborted := cresp.Equal(rel.S("retry"))
	if !cresp.IsNull() && cacheRespSet[cresp.Str()] && !stable(n.CacheState(msg.Addr)) {
		crow, ok := n.lookupCache(cresp.Str(), n.sys.sym.local, n.sys.sym.local, n.sys.sym.respQ, msg.Addr)
		if !ok {
			return false, fmt.Errorf("%w: C response %s at %s", ErrNoRow, cresp.Str(), n.CacheState(msg.Addr))
		}
		n.applyCacheRow(crow, msg.Addr)
		aborted = crow.Get("prresp").Equal(rel.S("pstall"))
	}
	if v := row.Get("nxtmshrst"); !v.IsNull() {
		n.setMshr(msg.Addr, v.Str())
	}
	// A completed prefetch fills the cache with a shared copy (the
	// directory has recorded this node as a sharer).
	if cresp.Equal(rel.S("pfdata")) {
		n.cache[msg.Addr] = protocol.CacheS
		n.touched.mark(msg.Addr)
	}
	// Account the outstanding op.
	if op, ok := n.outstanding[msg.Addr]; ok && !n.mshr[msg.Addr] {
		n.clearOutstanding(msg.Addr)
		if aborted {
			n.sys.stats.Retries++
			n.pendingOp = append(n.pendingOp, op)
			n.scriptTouched = true
			n.sys.tracef("%s re-queues %s(%d) after retry", n.eid, op.Kind, op.Addr)
		} else {
			n.attempts[msg.Addr] = 0
			n.completed++
			n.sys.stats.OpsCompleted++
			lat := n.sys.step - n.issuedAt[msg.Addr]
			n.sys.stats.OpLatencySum += lat
			if lat > n.sys.stats.OpLatencyMax {
				n.sys.stats.OpLatencyMax = lat
			}
			n.sys.tracef("%s completes %s(%d)", n.eid, op.Kind, op.Addr)
		}
	}
	n.sys.sendAll(out)
	return true, nil
}
