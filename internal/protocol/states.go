package protocol

import (
	"strings"
)

// Directory states (§2): the sharing status a directory entry records for a
// line. I = not cached anywhere, SI = shared (or invalid) in one or more
// caches, MESI = exclusively owned (modified or exclusive) by one cache.
const (
	DirI    = "I"
	DirSI   = "SI"
	DirMESI = "MESI"
)

// DirStates returns the stable directory states.
func DirStates() []string { return []string{DirI, DirSI, DirMESI} }

// Presence-vector encodings (§2): the 16-bit hardware vector is abstracted
// in the tables to zero (no sharers), one (exactly one owner) and gone (one
// or more sharers). The §4.3 invariant ties them to the directory state:
// I <-> zero, MESI <-> one, SI <-> gone.
const (
	PVZero = "zero"
	PVOne  = "one"
	PVGone = "gone"
)

// PVEncodings returns the presence-vector encodings.
func PVEncodings() []string { return []string{PVZero, PVOne, PVGone} }

// Presence-vector update operations (§2): what the hardware applies to the
// real vector on a state transition.
const (
	PVInc   = "inc"   // add a sharer
	PVDec   = "dec"   // remove a sharer
	PVRepl  = "repl"  // replace with the requestor (ownership transfer)
	PVDRepl = "drepl" // decrement; replace if the result is zero
	PVClear = "clear" // zero the vector
	PVLoad  = "load"  // load pending-response count from the vector
)

// PVOps returns the presence-vector update operations.
func PVOps() []string { return []string{PVInc, PVDec, PVRepl, PVDRepl, PVClear, PVLoad} }

// Cache line states of the 4-state MESI protocol [7] used by the cache
// controller, plus the transient states a real controller moves through.
const (
	CacheM = "M"
	CacheE = "E"
	CacheS = "S"
	CacheI = "I"
)

// CacheStates returns the stable MESI cache states.
func CacheStates() []string { return []string{CacheM, CacheE, CacheS, CacheI} }

// CacheTransients returns the transient cache-controller states: IS_d is an
// I->S miss awaiting data, IM_d an I->M miss, SM_w an upgrade awaiting
// grant, MI_w a writeback awaiting completion, and II_s a line being
// snooped away while a writeback is in flight.
func CacheTransients() []string { return []string{"IS_d", "IM_d", "SM_w", "MI_w", "II_s"} }

// busyFamily describes the busy-directory states of one transaction type at
// the directory controller: Busy-<txn>-<pending> where pending names the
// outstanding responses (s = snoops, d = data from memory, m = memory write
// done, w = writeback race resolution, c = final ack from the requestor;
// combinations like sd mean both are pending). The controller "may go
// through a sequence of these states for a single transaction" (§2.1).
type busyFamily struct {
	Txn      string
	Request  string // the request message that allocates the entry
	Pendings []string
}

// Pending tags: d = memory data, s = sharer invalidations (counted via the
// busy presence vector), sd = both, w = owner snoop response, m = memory
// write done, dm = both memory responses of an atomic, sm = owner flush
// data then memory write, a = forwarded interrupt ack, c = final compl from
// the requestor.
var busyFamilies = []busyFamily{
	{"rd", "read", []string{"d", "w", "c"}},
	{"rx", "readex", []string{"sd", "s", "d", "w", "c"}},
	{"ri", "readinv", []string{"sd", "s", "d", "w", "c"}},
	{"ug", "upgrade", []string{"s", "c"}},
	{"wb", "wb", []string{"m", "c"}},
	{"pw", "pwb", []string{"m", "c"}},
	{"fl", "flush", []string{"s", "sm", "m", "c"}},
	{"pf", "prefetch", []string{"d", "c"}},
	{"ior", "ioread", []string{"d", "c"}},
	{"iow", "iowrite", []string{"m", "c"}},
	{"ucr", "ucread", []string{"d", "c"}},
	{"ucw", "ucwrite", []string{"m", "c"}},
	{"at", "fetchadd", []string{"dm", "d", "m", "c"}},
	{"sy", "sync", []string{"c"}},
	{"in", "intr", []string{"a", "c"}},
}

// BusyState names the busy-directory state of transaction txn with the
// given pending set, e.g. BusyState("rx", "sd") = "Busy-rx-sd".
func BusyState(txn, pending string) string {
	return "Busy-" + txn + "-" + pending
}

// BusyStates returns every busy-directory state in declaration order. The
// paper reports "around 40 Busy states"; this catalog has exactly 40.
func BusyStates() []string {
	var out []string
	for _, f := range busyFamilies {
		for _, p := range f.Pendings {
			out = append(out, BusyState(f.Txn, p))
		}
	}
	return out
}

// IsBusyState reports whether s is a busy-directory state.
func IsBusyState(s string) bool {
	return strings.HasPrefix(s, "Busy-")
}

// BusyTxn returns the transaction tag of a busy state ("rx" for
// "Busy-rx-sd"), or "" if s is not a busy state.
func BusyTxn(s string) string {
	if !IsBusyState(s) {
		return ""
	}
	rest := strings.TrimPrefix(s, "Busy-")
	i := strings.IndexByte(rest, '-')
	if i < 0 {
		return ""
	}
	return rest[:i]
}

// TxnRequest returns the request message that opens the transaction with
// the given busy tag ("rx" -> "readex").
func TxnRequest(txn string) string {
	for _, f := range busyFamilies {
		if f.Txn == txn {
			return f.Request
		}
	}
	return ""
}

// TxnTags returns the transaction tags in declaration order.
func TxnTags() []string {
	out := make([]string, len(busyFamilies))
	for i, f := range busyFamilies {
		out[i] = f.Txn
	}
	return out
}

// Node roles (§2.1): local initiates a request, home owns the memory and
// directory for the line, remote potentially caches it.
const (
	RoleLocal  = "local"
	RoleHome   = "home"
	RoleRemote = "remote"
)

// Roles returns the three node roles.
func Roles() []string { return []string{RoleLocal, RoleHome, RoleRemote} }

// Queue resources of the directory controller implementation (Fig. 5).
const (
	QReq  = "reqq"
	QResp = "respq"
	QLoc  = "locq"
	QRem  = "remq"
	QMem  = "memq"
	QUpd  = "updq"
)
