package sim

// CloneDetached clones the system like Clone, except that the result does
// not trace: tracing never changes behaviour, and scratch systems reused
// across many states would otherwise accumulate logs. Clones share only
// immutable state with their original (the configuration, the compiled
// table matchers), and each counts its own table firings, so any number
// of clones may Apply concurrently.
func (s *System) CloneDetached() *System {
	c := s.Clone()
	c.cfg.Trace = false
	return c
}

// Per-container cost estimates for ApproxBytes: Go map/slice headers,
// buckets, and the strings typical protocol states hold.
const (
	systemFixedBytes  = 640 // System + dirCtl + memCtl + per-clone map headers
	channelFixedBytes = 160
	messageBytes      = 112 // Message struct: 3 string headers + contents
	dirEntryBytes     = 144
	sharerBytes       = 48
	busyEntryBytes    = 112
	nodeFixedBytes    = 400
	cacheEntryBytes   = 64
	mshrEntryBytes    = 48
	opBytes           = 40
	outstandingBytes  = 72
	intMapEntryBytes  = 48
)

// ApproxBytes estimates the heap bytes one retained Clone of this
// system costs: what a search that keeps a System per visited state
// pays per state, such as the in-memory test oracle in package
// modelcheck, whose budget accounting uses it. It is an estimate (Go
// map overhead varies with load factor), tuned to be slightly
// conservative, for accounting only, never for correctness.
func (s *System) ApproxBytes() int64 {
	n := int64(systemFixedBytes)
	for _, ch := range s.channels {
		n += channelFixedBytes + int64(len(ch.q))*messageBytes + int64(len(ch.stamps))*8
	}
	sd := s.dir.base()
	for _, e := range sd.dir {
		n += dirEntryBytes + int64(len(e.sharers))*sharerBytes
	}
	n += int64(len(sd.busy)) * busyEntryBytes
	n += int64(len(s.mem.firstSeen)) * messageBytes
	for _, nd := range s.nodes {
		n += nodeFixedBytes
		n += int64(len(nd.cache)) * cacheEntryBytes
		n += int64(len(nd.mshr)) * mshrEntryBytes
		n += int64(len(nd.pendingOp)) * opBytes
		n += int64(len(nd.outstanding)) * outstandingBytes
		n += int64(len(nd.attempts)+len(nd.issuedAt)) * intMapEntryBytes
	}
	return n
}
