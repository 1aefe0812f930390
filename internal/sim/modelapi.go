package sim

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// The fine-grained action API used by the explicit-state model checker
// (package modelcheck): instead of the Run scheduler's fixed per-step order,
// every enabled scheduling choice — issuing a processor op or delivering
// one channel head — is exposed as an Action, and System values can be
// cloned and fingerprinted so the state graph can be explored exhaustively.

// Action is one scheduling choice.
type Action struct {
	// Kind is "issue" or "deliver".
	Kind string
	// Node is the issuing node for "issue".
	Node int
	// Chan is the channel whose head is delivered for "deliver".
	Chan string
}

func (a Action) String() string {
	if a.Kind == "issue" {
		return fmt.Sprintf("issue@node%d", a.Node)
	}
	ch := a.Chan
	if ch == "" {
		ch = "internal"
	}
	return "deliver@" + ch
}

// CandidateActions lists the scheduling choices that might change the
// state: one issue per node with pending ops, one delivery per non-empty
// channel. Whether a candidate actually progresses is determined by Apply.
func (s *System) CandidateActions() []Action {
	var out []Action
	for i, n := range s.nodes {
		if len(n.pendingOp) > 0 {
			out = append(out, Action{Kind: "issue", Node: i})
		}
	}
	for i, ch := range s.chanList {
		if ch.Len() > 0 {
			out = append(out, Action{Kind: "deliver", Chan: s.chanNames[i]})
		}
	}
	return out
}

// Apply executes one action; it reports whether the state changed (a
// blocked delivery or ineligible issue leaves the state intact).
func (s *System) Apply(a Action) (bool, error) {
	switch a.Kind {
	case "issue":
		if a.Node < 0 || a.Node >= len(s.nodes) {
			return false, fmt.Errorf("sim: no node %d", a.Node)
		}
		return s.nodes[a.Node].issue()
	case "deliver":
		ch := s.channels[a.Chan]
		if ch == nil {
			return false, fmt.Errorf("sim: no channel %q", a.Chan)
		}
		msg, ok := ch.Head()
		if !ok {
			return false, nil
		}
		ent := s.entityFor(msg.To)
		if ent == nil {
			return false, fmt.Errorf("sim: message %s to unknown entity", msg)
		}
		done, err := ent.process(msg)
		if err != nil {
			return false, err
		}
		if done {
			ch.Pop()
			s.countDelivered(a.Chan)
		}
		return done, nil
	default:
		return false, fmt.Errorf("sim: unknown action kind %q", a.Kind)
	}
}

// Idle reports whether all work has drained (exported for the model
// checker's accept condition).
func (s *System) Idle() bool { return s.idle() }

// Clone deep-copies the system state. The configuration and tables are
// shared; queues, directory, busy directory, caches, MSHRs and scripts are
// copied.
func (s *System) Clone() *System {
	if _, ok := s.dir.(*dirCtl); !ok {
		panic("sim: Clone supports only the spec-level directory engine")
	}
	c := &System{
		cfg:       s.cfg,
		vcs:       s.vcs,
		channels:  make(map[string]*Channel, len(s.channels)),
		chanNames: s.chanNames,
		chanList:  make([]*Channel, len(s.chanList)),
		stats:     s.stats,
		step:      s.step,
		sym:       s.sym,
	}
	// Deep-copy the Stats maps: the struct assignment above aliased them,
	// so a send or delivery on the clone would otherwise mutate the
	// original (and race with sibling clones under parallel exploration).
	c.stats.MaxOccupancy = maps.Clone(s.stats.MaxOccupancy)
	c.stats.DeliveredPerChannel = maps.Clone(s.stats.DeliveredPerChannel)
	for i, ch := range s.chanList {
		nc := NewChannel(ch.Name, ch.Cap)
		nc.Latency = ch.Latency
		nc.now = &c.step
		nc.q = append([]Message(nil), ch.q...)
		nc.stamps = append([]int(nil), ch.stamps...)
		c.channels[s.chanNames[i]] = nc
		c.chanList[i] = nc
	}
	sd := s.dir.base()
	cd := &dirCtl{
		sys:   c,
		match: sd.match,
		dir:   make(map[Addr]*dirEntry, len(sd.dir)),
		busy:  make(map[Addr]*busyEntry, len(sd.busy)),
	}
	for a, e := range sd.dir {
		ne := &dirEntry{st: e.st, sharers: make(map[EntityID]bool, len(e.sharers))}
		for k, v := range e.sharers {
			ne.sharers[k] = v
		}
		cd.dir[a] = ne
	}
	for a, b := range sd.busy {
		nb := *b
		cd.busy[a] = &nb
	}
	c.dir = cd
	c.mem = &memCtl{sys: c, match: s.mem.match, firstSeen: make(map[Message]int, len(s.mem.firstSeen))}
	for k, v := range s.mem.firstSeen {
		c.mem.firstSeen[k] = v
	}
	for _, n := range s.nodes {
		nn := &nodeCtl{
			sys:         c,
			id:          n.id,
			eid:         n.eid,
			cacheMatch:  n.cacheMatch,
			mshrMatch:   n.mshrMatch,
			cache:       make(map[Addr]string, len(n.cache)),
			mshr:        make(map[Addr]bool, len(n.mshr)),
			pendingOp:   append([]Op(nil), n.pendingOp...),
			attempts:    make(map[Addr]int, len(n.attempts)),
			outstanding: make(map[Addr]Op, len(n.outstanding)),
			issuedAt:    make(map[Addr]int, len(n.issuedAt)),
			completed:   n.completed,
		}
		for k, v := range n.cache {
			nn.cache[k] = v
		}
		for k, v := range n.mshr {
			nn.mshr[k] = v
		}
		for k, v := range n.attempts {
			nn.attempts[k] = v
		}
		for k, v := range n.outstanding {
			nn.outstanding[k] = v
		}
		for k, v := range n.issuedAt {
			nn.issuedAt[k] = v
		}
		c.nodes = append(c.nodes, nn)
	}
	return c
}

// Fingerprint returns a canonical encoding of the protocol-relevant state:
// channel contents, directory and busy directory, caches, MSHRs and
// remaining scripts. Two states with equal fingerprints behave identically.
// It is the string form StateCodec replaced, kept for the in-memory BFS
// oracle in package modelcheck's tests.
func (s *System) Fingerprint() string {
	var sb strings.Builder
	for i, ch := range s.chanList {
		sb.WriteString("ch:")
		sb.WriteString(s.chanNames[i])
		for _, m := range ch.q {
			fmt.Fprintf(&sb, "|%s,%s,%s,%d", m.Type, m.From, m.To, m.Addr)
		}
		sb.WriteByte(';')
	}
	sd := s.dir.base()
	var addrs []Addr
	for a := range sd.dir {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		e := sd.dir[a]
		fmt.Fprintf(&sb, "dir:%d=%s", a, e.st)
		var sh []string
		for k := range e.sharers {
			sh = append(sh, string(k))
		}
		sort.Strings(sh)
		sb.WriteString(strings.Join(sh, ","))
		sb.WriteByte(';')
	}
	addrs = addrs[:0]
	for a := range sd.busy {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		b := sd.busy[a]
		fmt.Fprintf(&sb, "busy:%d=%s,%d,%s;", a, b.st, b.pending, b.requester)
	}
	for _, n := range s.nodes {
		fmt.Fprintf(&sb, "n%d:", n.id)
		var cad []Addr
		for a := range n.cache {
			cad = append(cad, a)
		}
		sort.Slice(cad, func(i, j int) bool { return cad[i] < cad[j] })
		for _, a := range cad {
			fmt.Fprintf(&sb, "c%d=%s,", a, n.cache[a])
		}
		cad = cad[:0]
		for a := range n.mshr {
			cad = append(cad, a)
		}
		sort.Slice(cad, func(i, j int) bool { return cad[i] < cad[j] })
		for _, a := range cad {
			fmt.Fprintf(&sb, "m%d,", a)
		}
		for _, op := range n.pendingOp {
			fmt.Fprintf(&sb, "op%s/%d,", op.Kind, op.Addr)
		}
		cad = cad[:0]
		for a := range n.outstanding {
			cad = append(cad, a)
		}
		sort.Slice(cad, func(i, j int) bool { return cad[i] < cad[j] })
		for _, a := range cad {
			fmt.Fprintf(&sb, "o%d=%s,", a, n.outstanding[a].Kind)
		}
		sb.WriteByte(';')
	}
	return sb.String()
}
