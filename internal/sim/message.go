// Package sim is a discrete-event protocol simulator that executes the
// generated controller tables directly: the directory, memory, cache and
// node-interface entities look their transitions up in the very tables the
// constraint solver produced, and exchange messages over finite virtual
// channel queues assigned by a V table. Because channel occupancy is
// modeled faithfully (capacity-limited FIFOs with head-of-line blocking),
// the simulator reproduces the §4.2 deadlock dynamically and validates the
// fixed assignment — the execution counterpart to the static VCG analysis.
package sim

import (
	"fmt"
)

// EntityID names a simulated entity. The home quad hosts the directory
// ("dir") and memory ("mem") controllers; each node i has a cache/node
// interface pair ("node0", "node1", ...).
type EntityID string

// Fixed entity IDs.
const (
	Dir EntityID = "dir"
	Mem EntityID = "mem"
)

// NodeID returns the entity ID for node i.
func NodeID(i int) EntityID { return EntityID(fmt.Sprintf("node%d", i)) }

// Addr is a cache line address.
type Addr int

// Message is one protocol message in flight.
type Message struct {
	Type string
	From EntityID
	To   EntityID
	Addr Addr
	// VC is the virtual channel the message rides, or "" for dedicated /
	// node-internal paths (unbounded).
	VC string
}

func (m Message) String() string {
	vc := m.VC
	if vc == "" {
		vc = "internal"
	}
	return fmt.Sprintf("%s(%d) %s->%s on %s", m.Type, m.Addr, m.From, m.To, vc)
}

// Channel is a capacity-limited FIFO. A full channel rejects sends; only
// the head may be consumed (head-of-line blocking), which is what makes
// channel deadlocks reproducible. An optional link latency withholds each
// message for a number of steps after it was sent.
type Channel struct {
	Name string
	Cap  int // <= 0 means unbounded
	// Latency is the link traversal time in steps; 0 delivers same-step.
	Latency int
	// now points at the owning system's step counter.
	now    *int
	q      []Message
	stamps []int
	// touched marks a queue Send or Pop changed since a StateCodec last
	// decoded it (see the StateCodec type comment).
	touched bool
}

// NewChannel creates a channel with the given capacity.
func NewChannel(name string, capacity int) *Channel {
	zero := 0
	return &Channel{Name: name, Cap: capacity, now: &zero}
}

// CanSend reports whether n more messages fit.
func (c *Channel) CanSend(n int) bool {
	return c.Cap <= 0 || len(c.q)+n <= c.Cap
}

// Send enqueues m; it reports false when full.
func (c *Channel) Send(m Message) bool {
	if !c.CanSend(1) {
		return false
	}
	c.q = append(c.q, m)
	c.stamps = append(c.stamps, *c.now)
	c.touched = true
	return true
}

// Head returns the head message without consuming it. With a link latency,
// a message younger than the latency is still in flight and not yet
// deliverable.
func (c *Channel) Head() (Message, bool) {
	if len(c.q) == 0 {
		return Message{}, false
	}
	if c.Latency > 0 && *c.now-c.stamps[0] < c.Latency {
		return Message{}, false
	}
	return c.q[0], true
}

// Pop consumes the head (regardless of latency; callers gate on Head).
// It shifts the rest forward in place, so a queue keeps its capacity for
// a later Send or decode.
func (c *Channel) Pop() (Message, bool) {
	if len(c.q) == 0 {
		return Message{}, false
	}
	m := c.q[0]
	c.q = c.q[:copy(c.q, c.q[1:])]
	c.stamps = c.stamps[:copy(c.stamps, c.stamps[1:])]
	c.touched = true
	return m, true
}

// InFlight reports whether the channel holds messages that are not yet
// deliverable purely because of link latency — time passing is progress.
func (c *Channel) InFlight() bool {
	if len(c.q) == 0 || c.Latency <= 0 {
		return false
	}
	return *c.now-c.stamps[0] < c.Latency
}

// Len returns the number of queued messages.
func (c *Channel) Len() int { return len(c.q) }

// Snapshot returns a copy of the queued messages, head first.
func (c *Channel) Snapshot() []Message { return append([]Message(nil), c.q...) }
