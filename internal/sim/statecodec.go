package sim

import (
	"fmt"
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
// "absent".
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
// Concurrency: any number of goroutines may call Encode and DecodeInto
// on one codec at once, provided each passes its own dst slice and its
// own System. Dictionary interning and the decode memo are safe for
// concurrent use, and neither call writes anything else in the codec.
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

	// memo maps a dictionary code to its parsed *part for DecodeInto.
	// Each code is stored once and then read by every decode, the case
	// sync.Map is built for; memoBytes approximates its size.
	memo      sync.Map
	memoBytes atomic.Int64
}

// NewStateCodec builds a codec for systems shaped like s (same config,
// channels, nodes, and address universe).
func NewStateCodec(s *System) *StateCodec {
	c := &StateCodec{dict: rel.NewDict(), nodes: len(s.nodes), addrIdx: map[Addr]int{}}
	for name := range s.channels {
		c.chans = append(c.chans, name)
	}
	sort.Strings(c.chans)

	seen := map[Addr]bool{}
	add := func(a Addr) { seen[a] = true }
	sd := s.dir.base()
	for a := range sd.dir {
		add(a)
	}
	for a := range sd.busy {
		add(a)
	}
	for _, n := range s.nodes {
		for a := range n.cache {
			add(a)
		}
		for a := range n.mshr {
			add(a)
		}
		for a := range n.outstanding {
			add(a)
		}
		for _, op := range n.pendingOp {
			add(op.Addr)
		}
	}
	for _, ch := range s.channels {
		for _, m := range ch.q {
			add(m.Addr)
		}
	}
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

// AddrAt returns the i-th address of the sorted universe.
func (c *StateCodec) AddrAt(i int) Addr { return c.addrs[i] }

// Bytes approximates the codec's resident size: its dictionary plus
// the parsed parts DecodeInto has memoized.
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

// Encode writes s's state tuple into dst (grown if needed) and returns
// it. The scratch builder sb is reused across components.
func (c *StateCodec) Encode(s *System, dst []uint32) []uint32 {
	if cap(dst) < c.width {
		dst = make([]uint32, c.width)
	}
	dst = dst[:c.width]
	for i := range dst {
		dst[i] = 0
	}
	var sb strings.Builder

	for i, name := range c.chans {
		ch := s.channels[name]
		if ch == nil || len(ch.q) == 0 {
			continue
		}
		sb.Reset()
		for _, m := range ch.q {
			sb.WriteString(m.Type)
			sb.WriteByte(',')
			sb.WriteString(string(m.From))
			sb.WriteByte(',')
			sb.WriteString(string(m.To))
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(int(m.Addr)))
			sb.WriteByte('|')
		}
		dst[i] = c.intern(sb.String())
	}

	sd := s.dir.base()
	for a, e := range sd.dir {
		sb.Reset()
		sb.WriteString(e.st)
		sb.WriteByte('|')
		sh := make([]string, 0, len(e.sharers))
		for k := range e.sharers {
			sh = append(sh, string(k))
		}
		sort.Strings(sh)
		sb.WriteString(strings.Join(sh, ","))
		dst[c.dirOff+c.addrSlot(a)] = c.intern(sb.String())
	}
	for a, b := range sd.busy {
		sb.Reset()
		sb.WriteString(b.st)
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(b.pending))
		sb.WriteByte('|')
		sb.WriteString(string(b.requester))
		dst[c.busyOff+c.addrSlot(a)] = c.intern(sb.String())
	}

	na := len(c.addrs)
	for ni, n := range s.nodes {
		base := c.nodeOff + ni*c.perNode
		for a, st := range n.cache {
			dst[base+c.addrSlot(a)] = c.intern(st)
		}
		// MSHR entries are presence-only (only ever set true or
		// deleted), and Fingerprint keys on presence — mirror that.
		for a := range n.mshr {
			dst[base+na+c.addrSlot(a)] = 1
		}
		if len(n.pendingOp) > 0 {
			sb.Reset()
			for _, op := range n.pendingOp {
				// Kind/Addr only: Fingerprint ignores Delay, so the
				// codec must too or equal states would encode apart.
				sb.WriteString(op.Kind)
				sb.WriteByte('/')
				sb.WriteString(strconv.Itoa(int(op.Addr)))
				sb.WriteByte(';')
			}
			dst[base+2*na] = c.intern(sb.String())
		}
		for a, op := range n.outstanding {
			dst[base+2*na+1+c.addrSlot(a)] = c.intern(op.Kind)
		}
	}
	return dst
}

// DecodeInto overwrites s with the state tuple holds; it is the inverse
// of Encode. s must have the codec's shape: a Clone of the system the
// codec was built from, or of one derived from it by Apply. Besides the
// encoded components, DecodeInto resets what Apply writes that the
// tuple does not hold: memory's first-seen steps and latency flag,
// per-line attempt counts, issue steps, completion counts and channel
// send stamps. None of these changes how a system behaves if
// CheckEncodable accepts it. Stats are left as they are.
func (c *StateCodec) DecodeInto(tuple []uint32, s *System) {
	for i, name := range c.chans {
		ch := s.channels[name]
		ch.q = ch.q[:0]
		if code := tuple[i]; code != 0 {
			for _, m := range c.part(code, partQueue).msgs {
				m.VC = name // send files every message under its VC
				ch.q = append(ch.q, m)
			}
		}
		ch.stamps = append(ch.stamps[:0], make([]int, len(ch.q))...)
	}

	sd := s.dir.base()
	for ai, a := range c.addrs {
		if code := tuple[c.dirOff+ai]; code == 0 {
			delete(sd.dir, a)
		} else {
			p := c.part(code, partDir)
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
		}
		if code := tuple[c.busyOff+ai]; code == 0 {
			delete(sd.busy, a)
		} else {
			b := sd.busy[a]
			if b == nil {
				b = new(busyEntry)
				sd.busy[a] = b
			}
			*b = c.part(code, partBusy).busy
		}
	}

	na := len(c.addrs)
	for ni, n := range s.nodes {
		base := c.nodeOff + ni*c.perNode
		for ai, a := range c.addrs {
			if code := tuple[base+ai]; code == 0 {
				delete(n.cache, a)
			} else {
				n.cache[a] = c.dict.Value(code).Str()
			}
			if tuple[base+na+ai] == 0 {
				delete(n.mshr, a)
			} else {
				n.mshr[a] = true
			}
			if code := tuple[base+2*na+1+ai]; code == 0 {
				delete(n.outstanding, a)
			} else {
				n.outstanding[a] = Op{Kind: c.dict.Value(code).Str(), Addr: a}
			}
		}
		n.pendingOp = n.pendingOp[:0]
		if code := tuple[base+2*na]; code != 0 {
			n.pendingOp = append(n.pendingOp, c.part(code, partScript).ops...)
		}
		clear(n.attempts)
		clear(n.issuedAt)
		n.completed = 0
	}
	clear(s.mem.firstSeen)
	s.mem.latencyWait = false
}

// partKind names the column kinds whose codes DecodeInto parses.
type partKind uint8

const (
	partQueue partKind = iota + 1
	partDir
	partBusy
	partScript
)

// part is a dictionary code parsed back into the component its column
// kind encodes. Parts are shared by every goroutine decoding with the
// codec, so DecodeInto copies them into the System and never aliases
// them.
type part struct {
	kind    partKind
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
func (c *StateCodec) part(code uint32, kind partKind) *part {
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

// parsePart inverts the strings Encode interns. Only Encode writes them,
// so a malformed one is a bug.
func parsePart(s string, kind partKind) *part {
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
	case partQueue:
		for rest := s; rest != ""; {
			var m string
			m, rest, _ = strings.Cut(rest, "|")
			f := strings.Split(m, ",")
			if len(f) != 4 {
				bad()
			}
			p.msgs = append(p.msgs, Message{Type: f[0], From: EntityID(f[1]), To: EntityID(f[2]), Addr: addr(f[3])})
		}
	case partDir:
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
	case partBusy:
		st, rest, ok1 := strings.Cut(s, "|")
		pending, req, ok2 := strings.Cut(rest, "|")
		n, err := strconv.Atoi(pending)
		if !ok1 || !ok2 || err != nil {
			bad()
		}
		p.busy = busyEntry{st: st, pending: n, requester: EntityID(req)}
	case partScript:
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
	names := make([]string, 0, len(s.channels))
	for name := range s.channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if ch := s.channels[name]; ch.Latency > 0 {
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

// isRawCol reports whether column j holds a raw number (the MSHR
// presence flags) rather than a dictionary code.
func (c *StateCodec) isRawCol(j int) bool {
	if j < c.nodeOff {
		return false
	}
	k := (j - c.nodeOff) % c.perNode
	na := len(c.addrs)
	return k >= na && k < 2*na
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
		switch {
		case c.isRawCol(j):
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
