package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing integer metric. Safe for
// concurrent use.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a settable integer metric (sizes, occupancies). Safe for
// concurrent use.
type Gauge struct {
	n atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// DurationBuckets are the default histogram bucket upper bounds for
// durations in seconds, spanning 10µs to 10s.
var DurationBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution metric. Observe is lock-free
// (atomic bucket counters), so per-morsel duration samples from the
// parallel executor never serialize on a mutex. Safe for concurrent use.
//
// Under concurrent observation a reader may see a sample reflected in a
// bucket before it is reflected in count/sum (or vice versa); the text
// exposition tolerates that, and the series converge once observers
// quiesce.
type Histogram struct {
	bounds  []float64       // sorted upper bounds, immutable after creation
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot copies the bucket counters for rendering.
func (h *Histogram) snapshot() (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.count.Load(), h.Sum()
}

// metricKind tags what a registry entry is.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered instrument. get sets the one instrument field
// its kind names before publishing it; the fields never change afterwards,
// so readers holding the pointer need no lock.
type metric struct {
	name   string
	kind   metricKind
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named instruments and renders them in the Prometheus
// text exposition format. Instruments are created on first use and
// returned on subsequent calls with the same name and labels. Safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // keyed by name + rendered labels
	help    map[string]string  // metric family name -> help text
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric), help: make(map[string]string)}
}

// Default is the process-wide registry used by the package-level helpers
// and the CLI -metrics flags.
var Default = NewRegistry()

// Help sets the HELP text for a metric family.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

func labelKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value for the text exposition format:
// inside double quotes, backslash, double quote and line feed must be
// rendered as \\, \" and \n. Backslashes are escaped first so the
// backslashes introduced for quotes and newlines are not re-escaped.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes HELP text: only backslash and line feed, per the
// exposition format (quotes are legal in help text).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// get returns the instrument registered under name and labels, creating
// it on first use. The instrument is built inside the critical section, so
// a metric is complete before WriteMetrics can see it and never changes
// afterwards. bounds matter only when a histogram is created.
func (r *Registry) get(name string, kind metricKind, labels []Label, bounds []float64) *metric {
	key := labelKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[key]
	if !ok {
		m = &metric{name: name, kind: kind, labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			m.c = &Counter{}
		case kindGauge:
			m.g = &Gauge{}
		default:
			if bounds == nil {
				bounds = DurationBuckets
			}
			bs := append([]float64(nil), bounds...)
			sort.Float64s(bs)
			m.h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
		}
		r.metrics[key] = m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", key))
	}
	return m
}

// Counter returns (creating on first use) the counter with the given name
// and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, kindCounter, labels, nil).c
}

// Gauge returns (creating on first use) the gauge with the given name and
// labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.get(name, kindGauge, labels, nil).g
}

// Histogram returns (creating on first use) the histogram with the given
// name, bucket upper bounds and labels. A nil bounds slice means
// DurationBuckets. Bounds are fixed at first creation.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return r.get(name, kindHistogram, labels, bounds).h
}

// WriteMetrics renders every instrument in the Prometheus text exposition
// format, sorted by metric family and label set: # HELP / # TYPE headers
// followed by one sample line per series (histograms expand into
// _bucket/_sum/_count).
func (r *Registry) WriteMetrics(w io.Writer) error {
	r.mu.Lock()
	families := map[string][]*metric{}
	kinds := map[string]metricKind{}
	for _, m := range r.metrics {
		families[m.name] = append(families[m.name], m)
		kinds[m.name] = m.kind
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := families[name]
		sort.Slice(ms, func(i, j int) bool {
			return labelKey(ms[i].name, ms[i].labels) < labelKey(ms[j].name, ms[j].labels)
		})
		if h := help[name]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(h)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kindName(kinds[name])); err != nil {
			return err
		}
		for _, m := range ms {
			if err := writeMetric(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func kindName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series renders name plus the label set (with extra labels appended) as
// a sample series name.
func series(name string, labels []Label, extra ...Label) string {
	return labelKey(name, append(append([]Label(nil), labels...), extra...))
}

func writeMetric(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name, m.labels), m.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name, m.labels), m.g.Value())
		return err
	default:
		h := m.h
		counts, count, sum := h.snapshot()
		var cum uint64
		for i, b := range h.bounds {
			cum += counts[i]
			le := strconv.FormatFloat(b, 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, L("le", le)), cum); err != nil {
				return err
			}
		}
		cum += counts[len(h.bounds)]
		if _, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_bucket", m.labels, L("le", "+Inf")), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series(m.name+"_sum", m.labels), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series(m.name+"_count", m.labels), count)
		return err
	}
}

// formatFloat renders a sample value; the exposition format spells the
// IEEE specials as +Inf, -Inf and NaN (they were previously flattened to
// "0", which silently corrupted overflowed sums).
func formatFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
