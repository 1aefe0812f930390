package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"coherdb/internal/hwmap"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/segment"
)

// Errors returned by the simulator.
var (
	ErrNoRow    = errors.New("sim: no controller table row matches")
	ErrBadTable = errors.New("sim: controller table missing or malformed")
	// ErrUnencodedState marks a system whose behaviour depends on state
	// the StateCodec does not encode (see System.CheckEncodable).
	ErrUnencodedState = errors.New("sim: behaviour depends on state the state codec does not encode")
)

// Op is one processor operation in a node's script.
type Op struct {
	Kind string // prread, prwrite, previct, prflush
	Addr Addr
	// Delay withholds the op until the given simulation step, for
	// choreographed scenarios.
	Delay int
}

// Config describes a simulated system.
type Config struct {
	// Nodes is the number of processor nodes (>= 1). Node 0 plays the
	// "local" role in scenarios; others are potential sharers/owners.
	Nodes int
	// ChannelCap is the per-virtual-channel capacity (the finite resource
	// whose exhaustion causes deadlock). <= 0 means unbounded.
	ChannelCap int
	// ChannelCaps overrides the capacity of individual channels by name.
	ChannelCaps map[string]int
	// ChannelLatency sets per-channel link traversal times in steps.
	ChannelLatency map[string]int
	// Tables are the generated controller tables, keyed "D", "M", "C", "N".
	Tables map[string]*rel.Table
	// Assignment is the V table (columns m, s, d, v). Message hops absent
	// from V ride dedicated/internal unbounded paths.
	Assignment *rel.Table
	// Mapping, when set, runs the directory as the Figure 5
	// implementation: the nine implementation tables with real internal
	// queues and the Dfdback feedback path (see implDirCtl).
	Mapping *hwmap.Mapping
	// ImplOutQueueCap / ImplUpdQueueCap size the implementation's internal
	// queues (defaults 2 and 1).
	ImplOutQueueCap int
	ImplUpdQueueCap int
	// MemLatency delays the memory controller: it only processes a
	// message after it has sat at the head of its queue for this many
	// steps. Used to steer interleavings (Fig. 4 needs a slow memory).
	MemLatency int
	// MaxRetries bounds how often a node re-issues an aborted operation;
	// 0 means unlimited.
	MaxRetries int
	// StarvationLimit declares deadlock when a message sits unprocessed
	// at a channel head for this many steps (retry traffic elsewhere can
	// otherwise mask a frozen channel pair). 0 means 2000.
	StarvationLimit int
	// MaxSteps bounds the run.
	MaxSteps int
	// Trace enables the event trace.
	Trace bool
	// TraceBudget caps the resident bytes of the accumulated trace
	// (which is stored as compressed code segments, see TraceLog);
	// 0 means unlimited. When a budget is set, Result.Trace stays nil
	// and callers stream lines with System.StreamTrace instead of
	// materializing the whole corpus.
	TraceBudget int64
	// TraceSpillDir, when set with TraceBudget, lets cold trace blocks
	// spill to disk so the corpus can exceed RAM. System.Close removes
	// the spill files.
	TraceSpillDir string
}

// Outcome classifies how a run ended.
type Outcome int

// Run outcomes.
const (
	Completed Outcome = iota // all scripts drained, no messages in flight
	Deadlocked
	StepLimit
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Deadlocked:
		return "deadlocked"
	case StepLimit:
		return "step limit reached"
	}
	return "unknown"
}

// Stats aggregates a run.
type Stats struct {
	Steps        int
	Delivered    int
	Blocked      int
	Retries      int
	OpsCompleted int
	// DeliveredPerChannel breaks Delivered down by virtual channel (the
	// unnamed internal/dedicated paths count under "internal").
	DeliveredPerChannel map[string]int
	// Transitions counts controller table-row firings across all entities.
	Transitions int
	// OpLatencySum and OpLatencyMax aggregate issue-to-completion times
	// (in steps) over completed remote transactions.
	OpLatencySum int
	OpLatencyMax int
	MaxOccupancy map[string]int
}

// AvgOpLatency returns the mean issue-to-completion latency in steps.
func (s Stats) AvgOpLatency() float64 {
	if s.OpsCompleted == 0 {
		return 0
	}
	return float64(s.OpLatencySum) / float64(s.OpsCompleted)
}

// Result is the outcome of a run.
type Result struct {
	Outcome Outcome
	Stats   Stats
	// Blockage describes the channel state at deadlock.
	Blockage string
	Trace    []string
}

// dirEngine abstracts the directory controller: the spec-level table
// executor (dirCtl) or the Figure 5 implementation (implDirCtl).
type dirEngine interface {
	process(Message) (bool, error)
	tick() bool
	quiescent() bool
	SetOwner(a Addr, owner EntityID)
	SetShared(a Addr, sharers ...EntityID)
	Entry(a Addr) (string, []EntityID)
	BusyCount() int
	base() *dirCtl
}

// System is one simulated multiprocessor.
type System struct {
	cfg      Config
	vcs      map[VKey]string
	channels map[string]*Channel
	// chanNames holds the channel names in sorted order, the order every
	// scan of the channels uses; channels never change after NewSystem,
	// so clones share it. chanList holds this system's channels in the
	// same order.
	chanNames []string
	chanList  []*Channel
	dir       dirEngine
	mem       *memCtl
	nodes     []*nodeCtl
	stats     Stats
	tlog      *TraceLog
	events    []Message
	step      int
	sym       *symbols
}

// VKey identifies a channel assignment (message, source role, dest role).
type VKey struct{ M, S, D string }

// symbols holds the dictionary codes of the constant symbols the
// controllers bind, interned once when the System is built. Every table
// encodes into the shared dictionary, so a code compares equal to a cell
// exactly when the values are equal.
type symbols struct {
	dict                            *rel.Dict
	home, local, remote             uint32
	reqQ, respQ, memQ               uint32
	hit, miss, ready, idle, pending uint32
	dirI, pvOne, pvGone, pvZero     uint32
}

func newSymbols() *symbols {
	d := rel.SharedDict()
	c := func(v string) uint32 { return d.Code(rel.S(v)) }
	return &symbols{
		dict: d,
		home: c(protocol.RoleHome), local: c(protocol.RoleLocal), remote: c(protocol.RoleRemote),
		reqQ: c(protocol.QReq), respQ: c(protocol.QResp), memQ: c(protocol.QMem),
		hit: c("hit"), miss: c("miss"), ready: c("ready"), idle: c("idle"), pending: c("pending"),
		dirI: c(protocol.DirI), pvOne: c(protocol.PVOne), pvGone: c(protocol.PVGone), pvZero: c(protocol.PVZero),
	}
}

// code interns a symbol computed at run time. A value no table holds gets
// a fresh code that no cell equals, and still decodes for error texts.
func (s *symbols) code(v string) uint32 { return s.dict.Code(rel.S(v)) }

// describe renders a lookup key by input column name, in name order.
func (s *symbols) describe(cols []string, key []uint32) string {
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cols[order[a]] < cols[order[b]] })
	var sb strings.Builder
	for _, i := range order {
		fmt.Fprintf(&sb, "%s=%v ", cols[i], s.dict.Value(key[i]))
	}
	return sb.String()
}

// fire matches key against a controller table and, on a hit, counts the
// firing in this System's Stats.Transitions.
func (s *System) fire(m *rel.Matcher, key []uint32) (rel.Row, bool) {
	r := m.Match(key)
	if r < 0 {
		return rel.Row{}, false
	}
	s.stats.Transitions++
	return m.Table().Row(r), true
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Nodes < 1 {
		cfg.Nodes = 2
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 100000
	}
	s := &System{
		cfg:      cfg,
		vcs:      make(map[VKey]string),
		channels: make(map[string]*Channel),
		sym:      newSymbols(),
	}
	s.stats.MaxOccupancy = make(map[string]int)
	if cfg.Assignment != nil {
		v := cfg.Assignment
		for _, c := range []string{"m", "s", "d", "v"} {
			if !v.HasColumn(c) {
				return nil, fmt.Errorf("%w: V lacks column %q", ErrBadTable, c)
			}
		}
		for i := 0; i < v.NumRows(); i++ {
			k := VKey{M: v.Get(i, "m").Str(), S: v.Get(i, "s").Str(), D: v.Get(i, "d").Str()}
			vc := v.Get(i, "v").Str()
			s.vcs[k] = vc
			if _, ok := s.channels[vc]; !ok {
				capn := cfg.ChannelCap
				if c, ok := cfg.ChannelCaps[vc]; ok {
					capn = c
				}
				ch := NewChannel(vc, capn)
				ch.Latency = cfg.ChannelLatency[vc]
				ch.now = &s.step
				s.channels[vc] = ch
			}
		}
	}
	// The dedicated/internal path is unbounded.
	s.channels[""] = NewChannel("internal", 0)
	s.channels[""].now = &s.step
	for name := range s.channels {
		s.chanNames = append(s.chanNames, name)
	}
	sort.Strings(s.chanNames)
	for _, name := range s.chanNames {
		s.chanList = append(s.chanList, s.channels[name])
	}

	var err error
	if cfg.Mapping != nil {
		s.dir, err = newImplDirCtl(s, cfg.Tables["D"], cfg.Mapping, cfg.ImplOutQueueCap, cfg.ImplUpdQueueCap)
	} else {
		s.dir, err = newDirCtl(s, cfg.Tables["D"])
	}
	if err != nil {
		return nil, err
	}
	if s.mem, err = newMemCtl(s, cfg.Tables["M"]); err != nil {
		return nil, err
	}
	cacheTab, mshrTab := cfg.Tables["C"], cfg.Tables["N"]
	if cacheTab == nil || mshrTab == nil {
		return nil, fmt.Errorf("%w: C or N", ErrBadTable)
	}
	// Every node runs the same C and N tables, so the nodes share one
	// matcher for each.
	cacheMatch, err := rel.NewMatcher(cacheTab, cacheInputs)
	if err != nil {
		return nil, err
	}
	mshrMatch, err := rel.NewMatcher(mshrTab, mshrInputs)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, newNodeCtl(s, i, cacheMatch, mshrMatch))
	}
	return s, nil
}

// Node returns node i's controller (for scenario setup).
func (s *System) Node(i int) *nodeCtl { return s.nodes[i] }

// Dir returns the directory engine (for scenario setup).
func (s *System) Dir() dirEngine { return s.dir }

// vcOf resolves the channel for a hop; "" means untracked (internal path).
func (s *System) vcOf(m, src, dst string) string {
	return s.vcs[VKey{M: m, S: src, D: dst}]
}

// send enqueues msg on its channel; reports false when full.
func (s *System) send(msg Message) bool {
	ch := s.channels[msg.VC]
	if ch == nil {
		ch = s.channels[""]
		msg.VC = ""
	}
	if !ch.Send(msg) {
		s.stats.Blocked++
		return false
	}
	if ch.Len() > s.stats.MaxOccupancy[ch.Name] {
		s.stats.MaxOccupancy[ch.Name] = ch.Len()
	}
	if s.cfg.Trace {
		s.events = append(s.events, msg)
	}
	s.tracef("send %s", msg)
	return true
}

// canSendAll checks capacity for a batch of messages atomically.
func (s *System) canSendAll(msgs []Message) bool {
	need := map[string]int{}
	for _, m := range msgs {
		vc := m.VC
		if s.channels[vc] == nil {
			vc = ""
		}
		need[vc]++
	}
	for vc, n := range need {
		if !s.channels[vc].CanSend(n) {
			return false
		}
	}
	return true
}

// sendAll enqueues a batch after canSendAll.
func (s *System) sendAll(msgs []Message) {
	for _, m := range msgs {
		if !s.send(m) {
			panic("sim: sendAll after canSendAll failed")
		}
	}
}

func (s *System) tracef(format string, args ...any) {
	if s.cfg.Trace {
		if s.tlog == nil {
			// Lazy so clones (which drop the parent's log) only pay
			// for a log once they actually trace.
			s.tlog = NewTraceLog(s.cfg.TraceBudget, s.cfg.TraceSpillDir)
		}
		s.tlog.Add(s.step, fmt.Sprintf(format, args...))
	}
}

// SetTraceBudget caps the resident bytes of the event trace after
// construction (the scenario builders don't expose Config directly).
// With a budget, Result.Trace stays nil — stream with StreamTrace.
// Must be called before the first traced step; once a log exists the
// call is ignored.
func (s *System) SetTraceBudget(budget int64, spillDir string) {
	if s.tlog != nil {
		return
	}
	s.cfg.TraceBudget = budget
	s.cfg.TraceSpillDir = spillDir
}

// StreamTrace invokes fn for each accumulated trace line in order
// without materializing the corpus; returning false stops early. It is
// the out-of-core alternative to Result.Trace.
func (s *System) StreamTrace(fn func(line string) bool) {
	if s.tlog != nil {
		s.tlog.Each(fn)
	}
}

// TraceStats exposes the trace log's segment-store accounting
// (resident/spilled bytes, spills, faults); zero when not tracing.
func (s *System) TraceStats() segment.Stats {
	if s.tlog == nil {
		return segment.Stats{}
	}
	return s.tlog.Stats()
}

// Close releases trace spill files, if any. Safe on every system.
func (s *System) Close() error {
	if s.tlog != nil {
		return s.tlog.Close()
	}
	return nil
}

// entityFor returns the consumer of a message.
func (s *System) entityFor(id EntityID) interface{ process(Message) (bool, error) } {
	switch id {
	case Dir:
		return s.dir
	case Mem:
		return s.mem
	default:
		for _, n := range s.nodes {
			if n.eid == id {
				return n
			}
		}
	}
	return nil
}

// countDelivered records one delivery on the named channel.
func (s *System) countDelivered(name string) {
	if name == "" {
		name = "internal"
	}
	if s.stats.DeliveredPerChannel == nil {
		s.stats.DeliveredPerChannel = map[string]int{}
	}
	s.stats.DeliveredPerChannel[name]++
	s.stats.Delivered++
}

// Run executes until completion, deadlock or the step limit.
func (s *System) Run() (*Result, error) {
	starvation := s.cfg.StarvationLimit
	if starvation <= 0 {
		starvation = 2000
	}
	headAge := map[string]int{}
	lastHead := map[string]Message{}
	for s.step = 0; s.step < s.cfg.MaxSteps; s.step++ {
		progress := false
		// Processors issue operations.
		for _, n := range s.nodes {
			issued, err := n.issue()
			if err != nil {
				return nil, err
			}
			progress = progress || issued
		}
		// Drain channel heads in a fixed, fair order.
		for i, ch := range s.chanList {
			name := s.chanNames[i]
			msg, ok := ch.Head()
			if !ok {
				continue
			}
			ent := s.entityFor(msg.To)
			if ent == nil {
				return nil, fmt.Errorf("sim: message %s to unknown entity", msg)
			}
			if name == "" {
				// Internal/dedicated paths have no head-of-line blocking:
				// deliver as many as possible.
				for {
					msg, ok := ch.Head()
					if !ok {
						break
					}
					done, err := s.entityFor(msg.To).process(msg)
					if err != nil {
						return nil, err
					}
					if !done {
						break
					}
					ch.Pop()
					s.countDelivered(name)
					progress = true
					s.tracef("deliver %s", msg)
				}
				continue
			}
			done, err := ent.process(msg)
			if err != nil {
				return nil, err
			}
			if done {
				ch.Pop()
				s.countDelivered(name)
				progress = true
				s.tracef("deliver %s", msg)
			}
		}
		if s.dir.tick() {
			progress = true
		}
		if s.idle() {
			s.stats.Steps = s.step + 1
			return s.result(Completed), nil
		}
		if s.mem.latencyWait {
			s.mem.latencyWait = false
			progress = true
		}
		for _, ch := range s.channels {
			if ch.InFlight() {
				progress = true // link latency elapsing is progress
				break
			}
		}
		if !progress {
			s.stats.Steps = s.step + 1
			return s.result(Deadlocked), nil
		}
		// Starvation detection: a message frozen at a tracked channel
		// head means a channel-resource deadlock even while unrelated
		// retry traffic keeps flowing.
		for name, ch := range s.channels {
			if name == "" {
				continue
			}
			head, ok := ch.Head()
			if !ok {
				headAge[name] = 0
				continue
			}
			if head == lastHead[name] {
				headAge[name]++
				if headAge[name] >= starvation {
					s.stats.Steps = s.step + 1
					return s.result(Deadlocked), nil
				}
			} else {
				lastHead[name] = head
				headAge[name] = 0
			}
		}
	}
	s.stats.Steps = s.cfg.MaxSteps
	return s.result(StepLimit), nil
}

// idle reports whether all work is done: scripts drained, no outstanding
// operations, no messages in flight.
func (s *System) idle() bool {
	for _, ch := range s.channels {
		if ch.Len() > 0 {
			return false
		}
	}
	for _, n := range s.nodes {
		if !n.idle() {
			return false
		}
	}
	return s.dir.BusyCount() == 0 && s.dir.quiescent()
}

func (s *System) result(o Outcome) *Result {
	res := &Result{Outcome: o, Stats: s.stats}
	if s.tlog != nil && s.cfg.TraceBudget == 0 {
		// Unbudgeted traces keep the materialized []string contract;
		// budgeted (out-of-core) runs stream via StreamTrace instead.
		res.Trace = s.tlog.Lines()
	}
	if o == Deadlocked {
		var sb strings.Builder
		for _, ch := range s.chanList {
			if ch.Len() == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%s (%d/%d):", ch.Name, ch.Len(), ch.Cap)
			for _, m := range ch.Snapshot() {
				fmt.Fprintf(&sb, " %s;", m)
			}
			sb.WriteByte('\n')
		}
		res.Blockage = sb.String()
	}
	return res
}
