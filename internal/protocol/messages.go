// Package protocol defines the ASURA-style directory-based MESI cache
// coherence protocol of the paper: the message catalog (~50 message types
// classified as requests and responses), the directory / busy-directory
// state spaces (~40 busy states), the presence-vector encodings and update
// operations, and the eight controller table specifications (directory,
// memory, cache, node interface, remote access cache, I/O bridge, interrupt
// and sync controllers) expressed as column tables plus SQL column
// constraints in the paper's dialect.
//
// The published fragments of the paper — the Figure 1 message classes, the
// Figure 3 readex rows of table D, the §4.3 invariants and the §4.2 virtual
// channel assignment — are reproduced exactly; the remainder of the protocol
// is completed in the same style so that table D reaches the published scale
// (30 columns, ~500 rows, ~40 busy states).
package protocol

import (
	"fmt"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Class partitions protocol messages into requests and responses; the
// virtual channel assignment of §4.2 is based on this classification.
type Class uint8

// Message classes.
const (
	Request Class = iota
	Response
)

func (c Class) String() string {
	if c == Request {
		return "request"
	}
	return "response"
}

// Message is one protocol message type.
type Message struct {
	Name  string
	Class Class
	// Data reports whether the message carries a cache line of data.
	Data bool
	// Desc is a one-line description for the Figure 1 catalog.
	Desc string
}

// The message catalog. Messages named in the paper (readex, sinv, mread,
// data, idone, compl, retry, wb, Dfdback) keep the paper's spelling; the
// rest complete the set of memory, I/O, uncached, atomic and special
// transactions to the published "around 50" scale.
var catalog = []Message{
	// Processor memory requests (local -> home).
	{"read", Request, false, "read a line shared"},
	{"readex", Request, false, "read a line exclusive"},
	{"upgrade", Request, false, "upgrade shared line to exclusive"},
	{"readinv", Request, false, "read once and invalidate (no caching)"},
	{"wb", Request, true, "write back a modified line"},
	{"pwb", Request, true, "partial write back (sub-line)"},
	{"flush", Request, false, "flush a line to memory everywhere"},
	{"replhint", Request, false, "replacement hint: shared copy dropped"},
	{"prefetch", Request, false, "prefetch a line shared"},
	// I/O, uncached and atomic requests (local -> home).
	{"ioread", Request, false, "I/O space read"},
	{"iowrite", Request, true, "I/O space write"},
	{"ucread", Request, false, "uncached memory read"},
	{"ucwrite", Request, true, "uncached memory write"},
	{"fetchadd", Request, false, "atomic fetch-and-add"},
	{"sync", Request, false, "memory barrier / fence"},
	{"intr", Request, false, "cross-processor interrupt"},
	// Snoop requests (home -> remote).
	{"sinv", Request, false, "snoop: invalidate cached copy"},
	{"sread", Request, false, "snoop: supply data, downgrade to shared"},
	{"sflush", Request, false, "snoop: supply data and invalidate"},
	// Memory access requests (home directory -> home memory).
	{"mread", Request, false, "memory read for a transaction"},
	{"mwrite", Request, true, "memory write of writeback data"},
	{"mrmw", Request, false, "memory read-modify-write (atomics)"},
	{"mwrpart", Request, true, "memory partial write"},
	// Implementation-defined request (§5).
	{"Dfdback", Request, false, "feedback request when update queue full"},

	// Responses home -> local (completion of processor transactions).
	{"data", Response, true, "line data, shared"},
	{"datax", Response, true, "line data, exclusive"},
	{"compl", Response, false, "transaction complete"},
	{"retry", Response, false, "busy: retry the request later"},
	{"nack", Response, false, "request rejected in current state"},
	{"upgack", Response, false, "upgrade granted"},
	{"wbcompl", Response, false, "writeback accepted"},
	{"flcompl", Response, false, "flush complete"},
	{"iodata", Response, true, "I/O read data"},
	{"iocompl", Response, false, "I/O write complete"},
	{"ucdata", Response, true, "uncached read data"},
	{"uccompl", Response, false, "uncached write complete"},
	{"atdata", Response, true, "atomic op old value"},
	{"pfdata", Response, true, "prefetch data"},
	{"syncack", Response, false, "barrier drained"},
	{"intrack", Response, false, "interrupt delivered"},
	{"replack", Response, false, "replacement hint accepted"},
	// Snoop responses (remote -> home).
	{"idone", Response, false, "invalidation done"},
	{"sdone", Response, false, "snoop done, line was clean"},
	{"sdata", Response, true, "snoop data from owner"},
	{"swbdata", Response, true, "snoop raced a writeback; data attached"},
	// Memory responses (home memory -> home directory).
	{"mdata", Response, true, "memory read data"},
	{"mdone", Response, false, "memory write done"},
	// Processor-side operations seen by the cache controller.
	{"prread", Request, false, "processor load"},
	{"prwrite", Request, false, "processor store"},
	{"previct", Request, false, "processor line eviction"},
	{"prflush", Request, false, "processor cache flush op"},
}

var catalogByName = func() map[string]Message {
	m := make(map[string]Message, len(catalog))
	for _, msg := range catalog {
		if _, dup := m[msg.Name]; dup {
			panic(fmt.Sprintf("protocol: duplicate message %q", msg.Name))
		}
		m[msg.Name] = msg
	}
	return m
}()

// Messages returns the full catalog in declaration order.
func Messages() []Message { return append([]Message(nil), catalog...) }

// IsRequest reports whether name is a request message.
func IsRequest(name string) bool {
	m, ok := catalogByName[name]
	return ok && m.Class == Request
}

// IsResponse reports whether name is a response message.
func IsResponse(name string) bool {
	m, ok := catalogByName[name]
	return ok && m.Class == Response
}

// CarriesData reports whether name carries a cache line of data.
func CarriesData(name string) bool {
	m, ok := catalogByName[name]
	return ok && m.Data
}

// RegisterFuncs installs the protocol predicates used by constraints and
// invariants (the paper's isrequest, plus isresponse and carriesdata) into
// any function registry, e.g. a sqlmini.DB or a constraint.Spec.
func RegisterFuncs(register func(name string, fn sqlmini.Func)) {
	oneArg := func(name string, f func(string) bool) sqlmini.Func {
		return func(args []rel.Value) (rel.Value, error) {
			if len(args) != 1 {
				return rel.Null(), fmt.Errorf("protocol: %s wants 1 argument, got %d", name, len(args))
			}
			if args[0].IsNull() {
				return rel.B(false), nil
			}
			return rel.B(f(args[0].Str())), nil
		}
	}
	register("isrequest", oneArg("isrequest", IsRequest))
	register("isresponse", oneArg("isresponse", IsResponse))
	register("carriesdata", oneArg("carriesdata", CarriesData))
	register("isbusy", oneArg("isbusy", IsBusyState))
}
