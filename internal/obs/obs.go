// Package obs is the zero-dependency observability layer of the
// reproduction: structured tracing spans with a ring-buffered in-memory
// collector and JSON-lines export, plus Prometheus-style counters, gauges
// and histograms with a text exposition (metrics.go).
//
// The paper's central claim is quantitative — incremental constraint
// solving beats monolithic generation, and the invariant queries are "fast
// enough to run on every revision" — so every layer of the pipeline
// (sqlmini statements, the constraint solver, the check suite, the
// deadlock analyzer, the simulator) reports into this package when a
// Tracer or *Registry is supplied, and stays zero-cost when it is not: a
// nil Tracer produces nil *Span handles whose methods no-op.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Attr is one structured key/value attribute attached to a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// Uint64 builds an unsigned integer attribute.
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// Duration builds a duration attribute (formatted, e.g. "1.5ms").
func Duration(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Tracer starts spans. Implementations must be safe for concurrent use.
// Callers should hold tracers as possibly-nil interface values and start
// spans through the package-level StartSpan, which tolerates nil.
type Tracer interface {
	StartSpan(name string, attrs ...Attr) *Span
}

// StartSpan starts a span on t, tolerating a nil tracer: the returned
// *Span is nil and all its methods no-op, so instrumented code needs no
// nil checks of its own.
func StartSpan(t Tracer, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.StartSpan(name, attrs...)
}

// sink is where finished spans go; the Collector implements it.
type sink interface {
	newSpan(name string, parent uint64, attrs []Attr) *Span
	finish(*Span)
}

// Span is one timed operation. A nil *Span is valid and inert.
type Span struct {
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Start    time.Time
	End      time.Time
	Attrs    []Attr `json:"attrs,omitempty"`

	sink sink
}

// Child starts a nested span under s.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil || s.sink == nil {
		return nil
	}
	return s.sink.newSpan(name, s.ID, attrs)
}

// SetAttr appends attributes to the span; typically results recorded just
// before Finish.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Finish stamps the end time and hands the span to its collector. Safe on
// a nil span; finishing twice records the span twice.
func (s *Span) Finish() {
	if s == nil || s.sink == nil {
		return
	}
	s.End = time.Now()
	s.sink.finish(s)
}

// spanJSON is the JSON-lines wire form of a finished span.
type spanJSON struct {
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	Dur      string `json:"dur"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Collector is a Tracer that keeps the most recent finished spans in a
// fixed-capacity ring buffer. It is safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	cap     int
	buf     []Span // ring: buf[(head+i)%cap] for i < n
	head    int
	n       int
	nextID  uint64
	dropped uint64
}

// DefaultCapacity is the collector ring size when NewCollector is given a
// non-positive capacity.
const DefaultCapacity = 4096

// NewCollector builds a collector retaining at most capacity finished
// spans (the oldest are dropped on overflow).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{cap: capacity, buf: make([]Span, capacity)}
}

// StartSpan implements Tracer.
func (c *Collector) StartSpan(name string, attrs ...Attr) *Span {
	return c.newSpan(name, 0, attrs)
}

func (c *Collector) newSpan(name string, parent uint64, attrs []Attr) *Span {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	return &Span{
		ID:       id,
		ParentID: parent,
		Name:     name,
		Start:    time.Now(),
		Attrs:    attrs,
		sink:     c,
	}
}

func (c *Collector) finish(s *Span) {
	rec := *s
	rec.sink = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < c.cap {
		c.buf[(c.head+c.n)%c.cap] = rec
		c.n++
		return
	}
	// Overwrite the oldest.
	c.buf[c.head] = rec
	c.head = (c.head + 1) % c.cap
	c.dropped++
}

// Len returns the number of retained spans.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Dropped returns how many finished spans were evicted by ring overflow.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Spans returns the retained spans, oldest first.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = c.buf[(c.head+i)%c.cap]
	}
	return out
}

// Reset discards all retained spans (span IDs keep increasing).
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.head, c.n, c.dropped = 0, 0, 0
}

// WriteJSONL writes the retained spans as JSON lines, oldest first: one
// object per line with id, parent_id, name, start_us (unix microseconds),
// dur and attrs.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range c.Spans() {
		rec := spanJSON{
			ID:       s.ID,
			ParentID: s.ParentID,
			Name:     s.Name,
			StartUS:  s.Start.UnixMicro(),
			Dur:      s.End.Sub(s.Start).String(),
			Attrs:    s.Attrs,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
