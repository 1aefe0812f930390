package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between the two nearest ranks. sorted must be ascending
// and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := (float64(len(sorted)) - 1) * p / 100
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median is Python's statistics.median: the middle value, or the mean of
// the two middle values of an even-sized sample.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(values, n=4) with its default
// "exclusive" method, so a spread computed here matches one computed by a
// script over the same run files. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// tailLevels are the percentiles a tail may be reported at, highest first,
// in hundredths of a percent.
var tailLevels = []struct {
	name string
	bp   int
}{
	{"p99.9", 9990},
	{"p99", 9900},
	{"p90", 9000},
	{"p50", 5000},
}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it in a sample of n, so a reported tail is never one or
// two outliers. ok is false below 20 samples, where even the median has
// fewer than ten beyond it.
func tailPercentile(n int) (name string, p float64, ok bool) {
	for _, l := range tailLevels {
		if n*(10000-l.bp)/10000 >= 10 {
			return l.name, float64(l.bp) / 100, true
		}
	}
	return "", 0, false
}

// durations is a latency sample.
type durations []time.Duration

// sortedMicros returns the sample in microseconds, ascending.
func (d durations) sortedMicros() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// pct returns the p-th percentile of the sample in microseconds, or 0 for
// an empty sample.
func (d durations) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return percentile(d.sortedMicros(), p)
}

// mean returns the sample mean in microseconds, or 0 for an empty sample.
func (d durations) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return float64(sum) / float64(len(d)) / float64(time.Microsecond)
}

// total sums the sample.
func (d durations) total() time.Duration {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum
}

// windowSize is how many latencies one window of a windowed sample holds:
// about half a second of one serve connection, with ten samples beyond its
// p99.9.
const windowSize = 10000

// window holds the percentiles of one full window, in microseconds.
type window struct {
	p50, p90, p999 float64
}

// windowed records a long latency stream one window at a time. It keeps
// each window's percentiles and the stream's count and sum, but no sample
// past the current window, so the harness's heap, and with it the
// collector's pace in the process under test, stays the same however many
// operations a phase runs.
type windowed struct {
	buf     durations
	sorted  []float64
	windows []window
	n       int
	sum     time.Duration
}

func newWindowed() *windowed {
	return &windowed{buf: make(durations, 0, windowSize), sorted: make([]float64, 0, windowSize)}
}

// reset starts a new stream, keeping the buffers.
func (w *windowed) reset() {
	w.buf, w.windows, w.n, w.sum = w.buf[:0], nil, 0, 0
}

func (w *windowed) add(d time.Duration) {
	w.n++
	w.sum += d
	w.buf = append(w.buf, d)
	if len(w.buf) == windowSize {
		w.closeWindow()
	}
}

func (w *windowed) closeWindow() {
	w.sorted = w.sorted[:0]
	for _, d := range w.buf {
		w.sorted = append(w.sorted, float64(d)/float64(time.Microsecond))
	}
	sort.Float64s(w.sorted)
	w.windows = append(w.windows, window{percentile(w.sorted, 50), percentile(w.sorted, 90), percentile(w.sorted, 99.9)})
	w.buf = w.buf[:0]
}

// finish ends the stream. The last, partial window is dropped, unless the
// stream is too short to fill one: then it is the only window.
func (w *windowed) finish() {
	if len(w.windows) == 0 && len(w.buf) > 0 {
		w.closeWindow()
	}
	w.buf = w.buf[:0]
}

// merge adds o's finished stream to w's.
func (w *windowed) merge(o *windowed) {
	w.windows = append(w.windows, o.windows...)
	w.n += o.n
	w.sum += o.sum
}

// mean returns the stream's mean latency in microseconds, or 0 for an
// empty stream.
func (w *windowed) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return float64(w.sum) / float64(w.n) / float64(time.Microsecond)
}

// median returns the median over the windows of the percentile f picks.
func (w *windowed) median(f func(window) float64) float64 {
	vals := make([]float64, len(w.windows))
	for i, win := range w.windows {
		vals[i] = f(win)
	}
	return median(vals)
}
