package sim

import (
	"fmt"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// memCtl executes the generated memory controller table M. An optional
// latency delays processing: a message must sit at the head of the memory
// queue for MemLatency steps before it is served, which is how scenarios
// steer interleavings (the Fig. 4 deadlock needs a memory slower than the
// snoop round trip).
type memCtl struct {
	sys   *System
	match *rel.Matcher
	// firstSeen records when each pending message first reached a queue
	// head, so latency is tracked per message even when several queues
	// feed the controller.
	firstSeen map[Message]int
	// latencyWait is set when the controller declined a message purely
	// because of latency; the scheduler counts that as progress.
	latencyWait bool
}

var memInputs = []string{"inmsg", "inmsgsrc", "inmsgdest", "inmsgrsrc", "bankst"}

func newMemCtl(s *System, tab *rel.Table) (*memCtl, error) {
	if tab == nil {
		return nil, fmt.Errorf("%w: M", ErrBadTable)
	}
	m, err := rel.NewMatcher(tab, memInputs)
	if err != nil {
		return nil, err
	}
	return &memCtl{sys: s, match: m, firstSeen: make(map[Message]int)}, nil
}

func (m *memCtl) process(msg Message) (bool, error) {
	if m.sys.cfg.MemLatency > 0 {
		seen, ok := m.firstSeen[msg]
		if !ok {
			m.firstSeen[msg] = m.sys.step
			m.latencyWait = true
			return false, nil
		}
		if m.sys.step-seen < m.sys.cfg.MemLatency {
			m.latencyWait = true
			return false, nil
		}
	}
	sym := m.sys.sym
	key := [...]uint32{sym.code(msg.Type), sym.home, sym.home, sym.memQ, sym.ready}
	row, ok := m.sys.fire(m.match, key[:])
	if !ok {
		return false, fmt.Errorf("%w: M input %v", ErrNoRow, sym.describe(memInputs, key[:]))
	}
	var out []Message
	for _, g := range []string{"dirmsg", "dirmsg2"} {
		if v := row.Get(g); !v.IsNull() {
			out = append(out, Message{
				Type: v.Str(), From: Mem, To: Dir, Addr: msg.Addr,
				VC: m.sys.vcOf(v.Str(), protocol.RoleHome, protocol.RoleHome),
			})
		}
	}
	if !m.sys.canSendAll(out) {
		return false, nil
	}
	m.sys.sendAll(out)
	delete(m.firstSeen, msg)
	return true, nil
}
