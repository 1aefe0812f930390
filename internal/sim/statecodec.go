package sim

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"coherdb/internal/rel"
)

// StateCodec encodes protocol-relevant System state as a fixed-width
// tuple of uint32 dictionary codes — the out-of-core representation
// behind the segmented model checker. Two systems encode to equal
// tuples if and only if their Fingerprints are equal: every component
// the fingerprint covers (channel queues, directory and busy
// directory, caches, MSHRs, scripts, outstanding transactions) maps to
// a dedicated column, with variable-length components interned as
// canonical strings in a codec-private dictionary and 0 reserved for
// "absent". Each column kind has one encoder (encodeCol) and one
// decoder (decodeCol); Encode and DecodeInto run them over every column.
//
// The address and channel universes are fixed at codec construction
// from the initial system; the protocol never invents addresses, so
// the universe is closed over exploration. Encoding a system that
// mentions an unknown address panics.
//
// DecodeInto inverts Encode, so a tuple alone is enough to expand a
// state. That holds only for systems whose behaviour depends on nothing
// the tuple leaves out; see CheckEncodable.
//
// Touched expansion makes an edge cost what its action changed. Apply
// marks each component it changes on the system itself: Channel.Send
// and Channel.Pop mark their channel; the directory marks an address
// whose directory or busy entry it updates; a node marks an address
// whose cache, MSHR or outstanding entry changes, and its script when an
// op is issued or re-queued. An address mark covers all of that
// component's columns for the address. EncodeTouched re-encodes only the
// marked columns over the parent's tuple, Restore decodes only those
// back from the parent, and DecodeDiff moves a system between two states
// by decoding only the columns where their tuples differ. EncodeTouched
// and Restore are valid only on a system this codec decoded (DecodeInto,
// DecodeDiff and Restore clear the marks) and that only Apply has
// changed since: setup calls such as SetCache or Script set no marks.
// Marks are deduplicated, so on a system Run drives, which never reads
// or clears them, they stay bounded by its channels and addresses.
//
// Concurrency: any number of goroutines may call the codec's methods on
// one codec at once, provided each passes its own dst slice and its own
// System. Dictionary interning and the decode memo are safe for
// concurrent use, and no method writes anything else in the codec.
type StateCodec struct {
	dict    *rel.Dict
	chans   []string
	addrs   []Addr
	addrIdx map[Addr]int
	nodes   int
	width   int

	// Column layout: [channels][dir per addr][busy per addr] then per
	// node: [cache per addr][mshr per addr][script][outstanding per addr].
	dirOff, busyOff, nodeOff, perNode int

	ownerM, ownerE, sharerS uint32

	// memo maps a dictionary code to its parsed *part for decodeCol.
	// Each code is stored once and then read by every decode, the case
	// sync.Map is built for; memoBytes approximates its size.
	memo      sync.Map
	memoBytes atomic.Int64
}

// addrMarks lists, once each, the addresses whose state of one
// component Apply changed since a StateCodec last decoded it.
type addrMarks []Addr

func (m *addrMarks) mark(a Addr) {
	for _, b := range *m {
		if b == a {
			return
		}
	}
	*m = append(*m, a)
}

// NewStateCodec builds a codec for systems shaped like s (same config,
// channels, nodes, and address universe).
func NewStateCodec(s *System) *StateCodec {
	c := &StateCodec{dict: rel.NewDict(), chans: s.chanNames, nodes: len(s.nodes), addrIdx: map[Addr]int{}}
	seen := map[Addr]bool{}
	eachAddr(s, func(a Addr) { seen[a] = true })
	for a := range seen {
		c.addrs = append(c.addrs, a)
	}
	sort.Slice(c.addrs, func(i, j int) bool { return c.addrs[i] < c.addrs[j] })
	for i, a := range c.addrs {
		c.addrIdx[a] = i
	}

	na := len(c.addrs)
	c.dirOff = len(c.chans)
	c.busyOff = c.dirOff + na
	c.nodeOff = c.busyOff + na
	c.perNode = 3*na + 1
	c.width = c.nodeOff + c.nodes*c.perNode

	// Pre-intern the MESI cache-state names so streaming coherence
	// checks can compare raw codes without decoding.
	c.ownerM = c.intern(cacheStateM)
	c.ownerE = c.intern(cacheStateE)
	c.sharerS = c.intern(cacheStateS)
	return c
}

// eachAddr calls fn with every address s holds state for, repeats
// included.
func eachAddr(s *System, fn func(Addr)) {
	sd := s.dir.base()
	for a := range sd.dir {
		fn(a)
	}
	for a := range sd.busy {
		fn(a)
	}
	for _, n := range s.nodes {
		for a := range n.cache {
			fn(a)
		}
		for a := range n.mshr {
			fn(a)
		}
		for a := range n.outstanding {
			fn(a)
		}
		for _, op := range n.pendingOp {
			fn(op.Addr)
		}
	}
	for _, ch := range s.chanList {
		for _, m := range ch.q {
			fn(m.Addr)
		}
	}
}

// The protocol package's stable cache-state names, referenced here via
// constants to avoid an import cycle risk in future splits.
const (
	cacheStateM = "M"
	cacheStateE = "E"
	cacheStateS = "S"
)

func (c *StateCodec) intern(s string) uint32 { return c.dict.Code(rel.S(s)) }

// Width reports the codes per encoded state.
func (c *StateCodec) Width() int { return c.width }

// NumAddrs reports the size of the address universe.
func (c *StateCodec) NumAddrs() int { return len(c.addrs) }

// NumNodes reports the node count.
func (c *StateCodec) NumNodes() int { return c.nodes }

// Bytes approximates the codec's resident size: its dictionary plus
// the parsed parts decodes have memoized.
func (c *StateCodec) Bytes() int64 { return c.dict.Bytes() + c.memoBytes.Load() }

// CacheCol returns the column index of node n's cache state for the
// a-th address of the universe.
func (c *StateCodec) CacheCol(n, a int) int {
	return c.nodeOff + n*c.perNode + a
}

// IsOwnerCode reports whether a cache-state code means M or E.
func (c *StateCodec) IsOwnerCode(code uint32) bool {
	return code == c.ownerM || code == c.ownerE
}

// IsSharerCode reports whether a cache-state code means S.
func (c *StateCodec) IsSharerCode(code uint32) bool { return code == c.sharerS }

func (c *StateCodec) addrSlot(a Addr) int {
	i, ok := c.addrIdx[a]
	if !ok {
		panic(fmt.Sprintf("sim: address %d outside the codec universe", a))
	}
	return i
}

// colKind names what a tuple column holds.
type colKind uint8

const (
	colQueue       colKind = iota + 1 // a channel's queue
	colDir                            // an address's directory entry
	colBusy                           // an address's busy-directory entry
	colCache                          // a node's cache state of an address
	colMshr                           // a node's MSHR flag for an address, raw 0 or 1
	colScript                         // a node's remaining script
	colOutstanding                    // the kind of a node's outstanding op on an address
)

// col locates column j: its kind, its node for per-node kinds, and its
// channel index for a queue or its address slot otherwise.
func (c *StateCodec) col(j int) (kind colKind, node, i int) {
	switch {
	case j < c.dirOff:
		return colQueue, 0, j
	case j < c.busyOff:
		return colDir, 0, j - c.dirOff
	case j < c.nodeOff:
		return colBusy, 0, j - c.busyOff
	}
	node, k := (j-c.nodeOff)/c.perNode, (j-c.nodeOff)%c.perNode
	na := len(c.addrs)
	switch {
	case k < na:
		return colCache, node, k
	case k < 2*na:
		return colMshr, node, k - na
	case k == 2*na:
		return colScript, node, 0
	}
	return colOutstanding, node, k - 2*na - 1
}

// encodeCol returns the code of column j of s, and b for reuse. It holds
// the one encoder of each column kind and writes every string parsePart
// reads. b is scratch.
func (c *StateCodec) encodeCol(s *System, j int, b []byte) (uint32, []byte) {
	kind, ni, i := c.col(j)
	b = b[:0]
	switch kind {
	case colQueue:
		q := s.chanList[i].q
		if len(q) == 0 {
			return 0, b
		}
		for _, m := range q {
			b = append(b, m.Type...)
			b = append(b, ',')
			b = append(b, m.From...)
			b = append(b, ',')
			b = append(b, m.To...)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(m.Addr), 10)
			b = append(b, '|')
		}
	case colDir:
		e := s.dir.base().dir[c.addrs[i]]
		if e == nil {
			return 0, b
		}
		var ids [8]EntityID
		sh := ids[:0]
		for k := range e.sharers {
			sh = append(sh, k)
		}
		slices.Sort(sh)
		b = append(b, e.st...)
		b = append(b, '|')
		for k, id := range sh {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, id...)
		}
	case colBusy:
		e := s.dir.base().busy[c.addrs[i]]
		if e == nil {
			return 0, b
		}
		b = append(b, e.st...)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(e.pending), 10)
		b = append(b, '|')
		b = append(b, e.requester...)
	case colCache:
		st, ok := s.nodes[ni].cache[c.addrs[i]]
		if !ok {
			return 0, b
		}
		return c.intern(st), b
	case colMshr:
		// MSHR entries are presence-only (only ever set true or
		// deleted), and Fingerprint keys on presence — mirror that.
		if _, ok := s.nodes[ni].mshr[c.addrs[i]]; ok {
			return 1, b
		}
		return 0, b
	case colScript:
		ops := s.nodes[ni].pendingOp
		if len(ops) == 0 {
			return 0, b
		}
		for _, op := range ops {
			// Kind/Addr only: Fingerprint ignores Delay, so the
			// codec must too or equal states would encode apart.
			b = append(b, op.Kind...)
			b = append(b, '/')
			b = strconv.AppendInt(b, int64(op.Addr), 10)
			b = append(b, ';')
		}
	case colOutstanding:
		op, ok := s.nodes[ni].outstanding[c.addrs[i]]
		if !ok {
			return 0, b
		}
		return c.intern(op.Kind), b
	}
	return c.intern(string(b)), b
}

// decodeCol overwrites column j of s with code. It holds the one decoder
// of each column kind. Parsed parts are shared by every goroutine
// decoding with the codec, so it copies them into s and never aliases
// them.
func (c *StateCodec) decodeCol(s *System, j int, code uint32) {
	kind, ni, i := c.col(j)
	switch kind {
	case colQueue:
		ch := s.chanList[i]
		ch.q = ch.q[:0]
		if code != 0 {
			for _, m := range c.part(code, colQueue).msgs {
				m.VC = c.chans[i] // send files every message under its VC
				ch.q = append(ch.q, m)
			}
		}
		ch.stamps = append(ch.stamps[:0], make([]int, len(ch.q))...)
	case colDir:
		sd, a := s.dir.base(), c.addrs[i]
		if code == 0 {
			delete(sd.dir, a)
			return
		}
		p := c.part(code, colDir)
		e := sd.dir[a]
		if e == nil {
			e = &dirEntry{sharers: make(map[EntityID]bool, len(p.sharers))}
			sd.dir[a] = e
		}
		e.st = p.st
		clear(e.sharers)
		for _, k := range p.sharers {
			e.sharers[k] = true
		}
	case colBusy:
		sd, a := s.dir.base(), c.addrs[i]
		if code == 0 {
			delete(sd.busy, a)
			return
		}
		b := sd.busy[a]
		if b == nil {
			b = new(busyEntry)
			sd.busy[a] = b
		}
		*b = c.part(code, colBusy).busy
	case colCache:
		n, a := s.nodes[ni], c.addrs[i]
		if code == 0 {
			delete(n.cache, a)
		} else {
			n.cache[a] = c.dict.Value(code).Str()
		}
	case colMshr:
		n, a := s.nodes[ni], c.addrs[i]
		if code == 0 {
			delete(n.mshr, a)
		} else {
			n.mshr[a] = true
		}
	case colScript:
		n := s.nodes[ni]
		n.pendingOp = n.pendingOp[:0]
		if code != 0 {
			n.pendingOp = append(n.pendingOp, c.part(code, colScript).ops...)
		}
	case colOutstanding:
		n, a := s.nodes[ni], c.addrs[i]
		if code == 0 {
			delete(n.outstanding, a)
		} else {
			n.outstanding[a] = Op{Kind: c.dict.Value(code).Str(), Addr: a}
		}
	}
}

// eachTouched calls fn with every column of s that a mark covers.
func (c *StateCodec) eachTouched(s *System, fn func(j int)) {
	for i, ch := range s.chanList {
		if ch.touched {
			fn(i)
		}
	}
	for _, a := range s.dir.base().touched {
		i := c.addrSlot(a)
		fn(c.dirOff + i)
		fn(c.busyOff + i)
	}
	na := len(c.addrs)
	for ni, n := range s.nodes {
		base := c.nodeOff + ni*c.perNode
		for _, a := range n.touched {
			i := c.addrSlot(a)
			fn(base + i)            // cache
			fn(base + na + i)       // MSHR
			fn(base + 2*na + 1 + i) // outstanding
		}
		if n.scriptTouched {
			fn(base + 2*na)
		}
	}
}

// Encode writes s's state tuple into dst (grown if needed) and returns
// it.
func (c *StateCodec) Encode(s *System, dst []uint32) []uint32 {
	eachAddr(s, func(a Addr) { c.addrSlot(a) })
	if cap(dst) < c.width {
		dst = make([]uint32, c.width)
	}
	dst = dst[:c.width]
	var buf []byte
	for j := range dst {
		dst[j], buf = c.encodeCol(s, j, buf)
	}
	return dst
}

// EncodeTouched writes into dst (grown if needed) and returns the tuple
// of s, which Apply has changed from the state parent: a copy of parent
// with the marked columns re-encoded. It equals Encode(s, dst); see the
// type comment for when it is valid.
func (c *StateCodec) EncodeTouched(s *System, parent, dst []uint32) []uint32 {
	dst = append(dst[:0], parent...)
	var buf []byte
	c.eachTouched(s, func(j int) { dst[j], buf = c.encodeCol(s, j, buf) })
	return dst
}

// DecodeInto overwrites s with the state tuple holds; it is the inverse
// of Encode. s must have the codec's shape: a Clone of the system the
// codec was built from, or of one derived from it by Apply. Like every
// decode it also settles s (see settle). Stats are left as they are.
func (c *StateCodec) DecodeInto(tuple []uint32, s *System) {
	for j, code := range tuple {
		c.decodeCol(s, j, code)
	}
	c.settle(s)
}

// DecodeDiff moves s from the state prev to the state next, decoding
// only the columns where the two tuples differ; the result equals
// DecodeInto(next, s). s must hold prev exactly: this codec decoded prev
// into it and nothing has changed it since.
func (c *StateCodec) DecodeDiff(prev, next []uint32, s *System) {
	for j, code := range next {
		if code != prev[j] {
			c.decodeCol(s, j, code)
		}
	}
	c.settle(s)
}

// Restore returns s, which Apply has changed from the state parent, to
// parent by decoding the marked columns back from it; the result equals
// DecodeInto(parent, s). See the type comment for when it is valid.
func (c *StateCodec) Restore(parent []uint32, s *System) {
	c.eachTouched(s, func(j int) { c.decodeCol(s, j, parent[j]) })
	c.settle(s)
}

// settle clears s's marks and resets what Apply writes that the tuple
// does not hold: memory's first-seen steps and latency flag, per-line
// attempt counts, issue steps and completion counts. (decodeCol resets a
// queue's send stamps with the queue.) None of these changes how a
// system behaves if CheckEncodable accepts it.
func (c *StateCodec) settle(s *System) {
	for _, ch := range s.chanList {
		ch.touched = false
	}
	sd := s.dir.base()
	sd.touched = sd.touched[:0]
	for _, n := range s.nodes {
		n.touched = n.touched[:0]
		n.scriptTouched = false
		clear(n.attempts)
		clear(n.issuedAt)
		n.completed = 0
	}
	clear(s.mem.firstSeen)
	s.mem.latencyWait = false
}

// part is a dictionary code parsed back into the component its column
// kind encodes. Parts are shared by every goroutine decoding with the
// codec, so decodeCol copies them into the System and never aliases
// them.
type part struct {
	kind    colKind
	msgs    []Message  // queue; VC is left to the channel
	st      string     // dir
	sharers []EntityID // dir
	busy    busyEntry  // busy
	ops     []Op       // script
}

// Per-part cost estimates for Bytes. The strings point into the
// dictionary's copies, which Dict.Bytes already counts.
const (
	partFixedBytes   = 224 // the part and its memo entry
	partMessageBytes = 72
	partSharerBytes  = 16
	partOpBytes      = 32
)

func (p *part) bytes() int64 {
	return partFixedBytes + int64(len(p.msgs))*partMessageBytes +
		int64(len(p.sharers))*partSharerBytes + int64(len(p.ops))*partOpBytes
}

// part returns code parsed as a component of the given kind. Parses are
// memoized per code: the dictionary only grows, so a code's parse never
// changes.
func (c *StateCodec) part(code uint32, kind colKind) *part {
	if v, ok := c.memo.Load(code); ok && v.(*part).kind == kind {
		return v.(*part)
	}
	// Racing decoders parse the same string, so whichever part is stored
	// first will do. A code parsed as another kind keeps its first part.
	p := parsePart(c.dict.Value(code).Str(), kind)
	if _, loaded := c.memo.LoadOrStore(code, p); !loaded {
		c.memoBytes.Add(p.bytes())
	}
	return p
}

// parsePart inverts the strings encodeCol interns. Only encodeCol writes
// them, so a malformed one is a bug.
func parsePart(s string, kind colKind) *part {
	bad := func() { panic(fmt.Sprintf("sim: bad state code %q", s)) }
	addr := func(f string) Addr {
		n, err := strconv.Atoi(f)
		if err != nil {
			bad()
		}
		return Addr(n)
	}
	p := &part{kind: kind}
	switch kind {
	case colQueue:
		for rest := s; rest != ""; {
			var m string
			m, rest, _ = strings.Cut(rest, "|")
			f := strings.Split(m, ",")
			if len(f) != 4 {
				bad()
			}
			p.msgs = append(p.msgs, Message{Type: f[0], From: EntityID(f[1]), To: EntityID(f[2]), Addr: addr(f[3])})
		}
	case colDir:
		st, sh, ok := strings.Cut(s, "|")
		if !ok {
			bad()
		}
		p.st = st
		if sh != "" {
			for _, k := range strings.Split(sh, ",") {
				p.sharers = append(p.sharers, EntityID(k))
			}
		}
	case colBusy:
		st, rest, ok1 := strings.Cut(s, "|")
		pending, req, ok2 := strings.Cut(rest, "|")
		n, err := strconv.Atoi(pending)
		if !ok1 || !ok2 || err != nil {
			bad()
		}
		p.busy = busyEntry{st: st, pending: n, requester: EntityID(req)}
	case colScript:
		for rest := s; rest != ""; {
			var op string
			op, rest, _ = strings.Cut(rest, ";")
			k, a, ok := strings.Cut(op, "/")
			if !ok {
				bad()
			}
			p.ops = append(p.ops, Op{Kind: k, Addr: addr(a)})
		}
	}
	return p
}

// CheckEncodable reports whether s's behaviour depends only on the state
// the codec encodes, which DecodeInto and a visited set keyed on tuples
// or Fingerprints rely on. If it does not, CheckEncodable returns an
// error wrapping ErrUnencodedState that names the first setting
// responsible.
func (s *System) CheckEncodable() error {
	unencoded := func(setting, state string) error {
		return fmt.Errorf("%w: %s (%s)", ErrUnencodedState, setting, state)
	}
	if _, ok := s.dir.(*dirCtl); !ok {
		return unencoded("Mapping", "the implementation directory's internal queues")
	}
	if s.cfg.MaxRetries > 0 {
		return unencoded(fmt.Sprintf("MaxRetries %d", s.cfg.MaxRetries), "per-line attempt counts")
	}
	if s.cfg.MemLatency > 0 {
		return unencoded(fmt.Sprintf("MemLatency %d", s.cfg.MemLatency), "memory's first-seen steps")
	}
	for _, ch := range s.chanList {
		if ch.Latency > 0 {
			return unencoded(fmt.Sprintf("latency %d on channel %s", ch.Latency, ch.Name), "send stamps")
		}
	}
	for _, n := range s.nodes {
		for _, op := range n.pendingOp {
			if op.Delay > s.step {
				return unencoded(fmt.Sprintf("%s op %s(%d) delayed to step %d", n.eid, op.Kind, op.Addr, op.Delay),
					"the step counter")
			}
		}
	}
	return nil
}

// ValueHash hashes an encoded state by its decoded VALUES, not its
// codes — two codecs (or two processes) that interned strings in
// different orders still hash equal states equally. The model checker
// XORs these per state into the order-insensitive reachable-set hash.
func (c *StateCodec) ValueHash(tuple []uint32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	for j, code := range tuple {
		switch kind, _, _ := c.col(j); {
		case kind == colMshr:
			mix(0x03)
			mix(byte(code))
			mix(byte(code >> 8))
			mix(byte(code >> 16))
			mix(byte(code >> 24))
		case code == 0:
			mix(0x02)
		default:
			mix(0x01)
			s := c.dict.Value(code).Str()
			for i := 0; i < len(s); i++ {
				mix(s[i])
			}
			mix(0x00)
		}
	}
	return h
}

// EncodeAction interns a for compact storage in the search tree.
func (c *StateCodec) EncodeAction(a Action) uint32 {
	if a.Kind == "issue" {
		return c.intern("issue|" + strconv.Itoa(a.Node))
	}
	return c.intern("deliver|" + a.Chan)
}

// DecodeAction inverts EncodeAction.
func (c *StateCodec) DecodeAction(code uint32) Action {
	s := c.dict.Value(code).Str()
	if rest, ok := strings.CutPrefix(s, "issue|"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			panic("sim: bad action code " + s)
		}
		return Action{Kind: "issue", Node: n}
	}
	if rest, ok := strings.CutPrefix(s, "deliver|"); ok {
		return Action{Kind: "deliver", Chan: rest}
	}
	panic("sim: bad action code " + s)
}
