package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4},
	} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	d := durations{4 * time.Microsecond, time.Microsecond, 3 * time.Microsecond, 2 * time.Microsecond}
	if got := d.pct(50); !near(got, 2.5) {
		t.Errorf("durations.pct(50) = %v, want 2.5", got)
	}
	if got := d.mean(); !near(got, 2.5) {
		t.Errorf("durations.mean() = %v, want 2.5", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(values,
// n=4) returns for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 12, 11}, 10, 12},
	} {
		q1, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

func TestWindowedKeepsFullWindowsOnly(t *testing.T) {
	w := newWindowed()
	// Two full windows, at 1..windowSize and 2× that, then half a window.
	for k := 1; k <= 2; k++ {
		for i := 1; i <= windowSize; i++ {
			w.add(time.Duration(k*i) * time.Microsecond)
		}
	}
	for i := 0; i < windowSize/2; i++ {
		w.add(time.Second)
	}
	w.finish()
	if len(w.windows) != 2 {
		t.Fatalf("%d windows, want 2: the partial one is dropped", len(w.windows))
	}
	if got, want := w.windows[0].p90, percentile(seq(windowSize, 1), 90); !near(got, want) {
		t.Errorf("first window p90 = %v, want %v", got, want)
	}
	if got, want := w.median(func(x window) float64 { return x.p50 }), 1.5*percentile(seq(windowSize, 1), 50); !near(got, want) {
		t.Errorf("median window p50 = %v, want %v", got, want)
	}
	if w.n != 2*windowSize+windowSize/2 {
		t.Errorf("n = %d: every latency counts toward the mean", w.n)
	}

	w.reset()
	w.add(3 * time.Microsecond)
	w.add(5 * time.Microsecond)
	w.finish()
	if len(w.windows) != 1 || !near(w.windows[0].p50, 4) || !near(w.mean(), 4) {
		t.Errorf("a stream shorter than a window: windows %v, mean %v; want one window, p50 and mean 4", w.windows, w.mean())
	}
}

// seq returns k, 2k, ..., n·k.
func seq(n int, k float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) * k
	}
	return out
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {1000000, "p99.9"},
	} {
		name, p, ok := tailPercentile(c.n)
		if name != c.want || ok != (c.want != "") {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q", c.n, name, ok, c.want)
			continue
		}
		if ok && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %s leaves fewer than 10 samples beyond it", c.n, name)
		}
	}
}
