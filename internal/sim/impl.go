package sim

import (
	"fmt"
	"slices"

	"coherdb/internal/hwmap"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// implDirCtl is the Figure 5 micro-architecture executed dynamically: the
// directory controller implemented by the nine implementation tables (via
// hwmap.Controller), with real internal output queues (locmsg, remmsg,
// memmsg), a directory update queue, and the Dfdback feedback path. Qstatus
// and Dqstatus are computed from actual queue occupancy, so the §5
// implementation details — retry under full queues, deferred directory
// updates — are exercised, not just statically checked.
//
// Its updates set no StateCodec marks: CheckEncodable refuses this engine
// and Clone panics on it, so no codec ever expands a system that runs it.
type implDirCtl struct {
	*dirCtl
	ctrl *hwmap.Controller
	// Output queues toward the virtual channels. A remq entry is one
	// multicast (the hardware stores one entry plus the presence vector
	// and expands it on the way out).
	locq, memq []Message
	remq       [][]Message
	outqCap    int
	// The directory update queue: deferred state applications.
	updq    []func()
	updqCap int
	// The feedback path: deferred updates awaiting replay as Dfdback.
	feedback []func()
	// full and notFull code the queue statuses.
	full, notFull uint32
	// ImplStats counts implementation-path events.
	ImplStats struct {
		QFullRetries int
		Feedbacks    int
		Replays      int
	}
}

func newImplDirCtl(s *System, tab *rel.Table, m *hwmap.Mapping, outqCap, updqCap int) (*implDirCtl, error) {
	base, err := newDirCtl(s, tab)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(implInputs, hwmap.InputColumns()) {
		return nil, fmt.Errorf("%w: implementation inputs %v, want %v", ErrBadTable, hwmap.InputColumns(), implInputs)
	}
	ctrl, err := hwmap.NewController(m)
	if err != nil {
		return nil, err
	}
	if outqCap <= 0 {
		outqCap = 2
	}
	if updqCap <= 0 {
		updqCap = 1
	}
	return &implDirCtl{
		dirCtl: base, ctrl: ctrl, outqCap: outqCap, updqCap: updqCap,
		full: s.sym.code(hwmap.Full), notFull: s.sym.code(hwmap.NotFull),
	}, nil
}

// implInputs is the implementation's key order: D's inputs, then the
// queue statuses (dirKey's layout, and hwmap.InputColumns).
var implInputs = append(append([]string(nil), dirInputs...), hwmap.ColQstatus, hwmap.ColDqstatus)

// implRow adapts the implementation controller's output tuple to rowGetter.
type implRow struct {
	ctrl *hwmap.Controller
	out  []uint32
}

// Get implements rowGetter; columns no matched table produced read as NULL.
func (r implRow) Get(col string) rel.Value { return r.ctrl.Output(r.out, col) }

// qfull computes the §5 Qstatus: Full if any of the locmsg, remmsg,
// memmsg or update queues is full.
func (d *implDirCtl) qfull() bool {
	return len(d.locq) >= d.outqCap || len(d.remq) >= d.outqCap ||
		len(d.memq) >= d.outqCap || len(d.updq) >= d.updqCap
}

// status codes a queue status.
func (d *implDirCtl) status(full bool) uint32 {
	if full {
		return d.full
	}
	return d.notFull
}

// process consumes one message through the split request/response
// controller. Outputs enter the internal queues; the input blocks only when
// even the row's queue demand cannot be met (e.g. a retry with a full
// locmsg queue — exactly the blocking the Fig. 5 design minimizes).
func (d *implDirCtl) process(msg Message) (bool, error) {
	key, be, de, err := d.keyFor(msg)
	if err != nil {
		return false, err
	}
	isReq := protocol.IsRequest(msg.Type)
	if isReq {
		key[kQstatus] = d.status(d.qfull())
	} else {
		key[kDqstatus] = d.status(len(d.updq) >= d.updqCap)
	}
	outs, ok := d.ctrl.Lookup(key[:])
	if !ok {
		return false, fmt.Errorf("%w: implementation tables, input %v", ErrNoRow, d.sys.sym.describe(implInputs, key[:]))
	}
	row := implRow{d.ctrl, outs}
	requester := d.requesterFor(msg, be)
	batch, snoopTargets, loadWithNoTargets := d.outputsFor(row, msg, de, requester)
	if !d.enqueueAll(batch) {
		return false, nil
	}
	if isReq && key[kQstatus] == d.full {
		d.ImplStats.QFullRetries++
	}

	// Busy-directory updates apply immediately (the busy directory has its
	// own write port); directory updates go through the update queue, or
	// over the feedback path when it is full.
	d.applyBusyOnly(row, msg, be, snoopTargets, loadWithNoTargets, requester)
	switch {
	case row.Get(hwmap.ColFdback).Equal(rel.S("Dfdback")):
		// The deferred payload is what the un-deferred row would have
		// written: look up the Dqstatus=NotFull variant.
		d.ImplStats.Feedbacks++
		free := key
		free[kDqstatus] = d.notFull
		fullOuts, ok := d.ctrl.Lookup(free[:])
		if !ok {
			return false, fmt.Errorf("%w: no un-deferred variant for %v", ErrNoRow, d.sys.sym.describe(implInputs, key[:]))
		}
		fullRow := implRow{d.ctrl, fullOuts}
		m, req := msg, requester
		d.feedback = append(d.feedback, func() {
			d.applyDirOnly(fullRow, m, req)
		})
	case row.Get("dirupd").Equal(rel.S("upd")):
		m, req := msg, requester
		d.updq = append(d.updq, func() {
			d.applyDirOnly(row, m, req)
		})
	}
	return true, nil
}

// enqueueAll admits a batch into the internal output queues, atomically. A
// snoop multicast occupies a single remmsg queue entry.
func (d *implDirCtl) enqueueAll(batch []Message) bool {
	needLoc, needMem, needRem := 0, 0, 0
	var multicast []Message
	for _, m := range batch {
		switch {
		case m.To == Mem:
			needMem++
		case m.To == Dir:
			// synthesized internal idone: bypasses the queues
		case protocol.IsRequest(m.Type):
			multicast = append(multicast, m)
			needRem = 1
		default:
			needLoc++
		}
	}
	if len(d.locq)+needLoc > d.outqCap || len(d.remq)+needRem > d.outqCap || len(d.memq)+needMem > d.outqCap {
		return false
	}
	for _, m := range batch {
		switch {
		case m.To == Mem:
			d.memq = append(d.memq, m)
		case m.To == Dir:
			if !d.sys.send(m) {
				panic("sim: internal channel rejected send")
			}
		case protocol.IsRequest(m.Type):
			// appended below as one multicast entry
		default:
			d.locq = append(d.locq, m)
		}
	}
	if len(multicast) > 0 {
		d.remq = append(d.remq, multicast)
	}
	return true
}

// applyBusyOnly applies the busy-directory half of a row.
func (d *implDirCtl) applyBusyOnly(row rowGetter, msg Message, be *busyEntry, snoopTargets []EntityID, loadWithNoTargets bool, requester EntityID) {
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
}

// applyDirOnly applies the directory half of a row (possibly deferred).
func (d *implDirCtl) applyDirOnly(row rowGetter, msg Message, requester EntityID) {
	de := d.dir[msg.Addr]
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
	if de.st == protocol.DirI && len(de.sharers) == 0 {
		delete(d.dir, msg.Addr)
	}
}

// tick drains the micro-architecture by one cycle: each output queue's head
// toward its channel, one update-queue application, and one feedback replay
// when the queues have room. It reports whether anything moved.
func (d *implDirCtl) tick() bool {
	progressed := false
	drain := func(q *[]Message) {
		for len(*q) > 0 {
			if !d.sys.send((*q)[0]) {
				return
			}
			*q = (*q)[1:]
			progressed = true
		}
	}
	drain(&d.locq)
	drain(&d.memq)
	// The head multicast entry expands message by message; a partial send
	// keeps the remainder at the head.
	for len(d.remq) > 0 {
		head := d.remq[0]
		for len(head) > 0 && d.sys.send(head[0]) {
			head = head[1:]
			progressed = true
		}
		d.remq[0] = head
		if len(head) > 0 {
			break
		}
		d.remq = d.remq[1:]
	}
	if len(d.updq) > 0 {
		d.updq[0]()
		d.updq = d.updq[1:]
		progressed = true
	}
	if len(d.feedback) > 0 && !d.qfull() {
		d.feedback[0]()
		d.feedback = d.feedback[1:]
		d.ImplStats.Replays++
		progressed = true
	}
	return progressed
}

// base exposes the shared directory state.
func (d *implDirCtl) base() *dirCtl { return d.dirCtl }

// quiescent reports whether all internal queues have drained.
func (d *implDirCtl) quiescent() bool {
	return len(d.locq) == 0 && len(d.remq) == 0 && len(d.memq) == 0 &&
		len(d.updq) == 0 && len(d.feedback) == 0
}
