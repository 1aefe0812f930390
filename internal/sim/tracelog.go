package sim

import (
	"fmt"

	"coherdb/internal/rel"
	"coherdb/internal/segment"
)

// TraceLog accumulates the event trace out-of-core: each line is a
// (step, body) pair stored as a width-2 code tuple in a compressed
// segment store, with the body interned in a log-private dictionary.
// Trace bodies repeat heavily (the same sends/delivers over and over),
// so long runs cost a few bytes per line instead of a retained string;
// with a budget and spill directory the trace corpus can exceed RAM.
type TraceLog struct {
	dict  *rel.Dict
	store *segment.Store
	buf   []uint32
}

// NewTraceLog returns an empty log. budget caps resident bytes (0 =
// unlimited); spillDir, when non-empty, lets cold blocks spill to disk
// under budget pressure.
func NewTraceLog(budget int64, spillDir string) *TraceLog {
	return &TraceLog{
		dict: rel.NewDict(),
		store: segment.NewStore(segment.StoreConfig{
			Width:     2,
			BlockRows: 1024,
			Budget:    budget,
			SpillDir:  spillDir,
		}),
		buf: make([]uint32, 2),
	}
}

// Add appends one line.
func (t *TraceLog) Add(step int, body string) {
	t.buf[0] = uint32(step)
	t.buf[1] = t.dict.Code(rel.S(body))
	t.store.Append(t.buf)
}

// Each streams the formatted lines in order; returning false stops.
func (t *TraceLog) Each(fn func(line string) bool) {
	t.store.Stream(0, t.store.Rows(), func(id int64, tuple []uint32) bool {
		return fn(fmt.Sprintf("[%5d] %s", int(tuple[0]), t.dict.Value(tuple[1]).Str()))
	})
}

// Lines materializes every formatted line (the in-memory Result.Trace
// contract; for out-of-core traces prefer Each).
func (t *TraceLog) Lines() []string {
	out := make([]string, 0, t.store.Rows())
	t.Each(func(line string) bool {
		out = append(out, line)
		return true
	})
	return out
}

// Stats exposes the underlying store accounting (resident/spilled
// bytes, spills, faults).
func (t *TraceLog) Stats() segment.Stats { return t.store.Stats() }

// Close removes any spill files.
func (t *TraceLog) Close() error { return t.store.Close() }
