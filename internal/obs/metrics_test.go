package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestEscapeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{"", ""},
		{`back\slash`, `back\\slash`},
		{"new\nline", `new\nline`},
		{`has "quotes"`, `has \"quotes\"`},
		{"\\\n\"", `\\\n\"`},
		{`\n`, `\\n`}, // literal backslash-n must not collapse into newline
		{"SELECT \"x\"\nFROM t\\u", `SELECT \"x\"\nFROM t\\u`},
	} {
		if got := escapeLabel(tc.in); got != tc.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestEscapeHelp(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain help text", "plain help text"},
		{"multi\nline", `multi\nline`},
		{`back\slash`, `back\\slash`},
		// HELP text does NOT escape quotes (only label values do).
		{`keeps "quotes"`, `keeps "quotes"`},
	} {
		if got := escapeHelp(tc.in); got != tc.want {
			t.Errorf("escapeHelp(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHelpEscapedInExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("x_total", "line one\nline two \\ done")
	r.Counter("x_total").Inc()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# HELP x_total line one\nline two \\ done`) {
		t.Errorf("HELP not escaped:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "line one\nline two") {
		t.Errorf("raw newline leaked into HELP line:\n%s", buf.String())
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
	} {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines and requires the lock-free implementation to lose nothing:
// the total count, per-bucket counts and sum must all match a serial
// reference, and the rendered exposition must be byte-identical.
func TestHistogramConcurrentObserve(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	// Powers of two, one per bucket: every partial sum is exact, so the
	// rendered sum cannot depend on the order the goroutines add in.
	values := []float64{1.0 / 2048, 1.0 / 256, 1.0 / 32, 0.5, 4}

	render := func(r *Registry) string {
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	serial := NewRegistry()
	hs := serial.Histogram("lat_seconds", bounds)
	const goroutines, rounds = 8, 1000
	for g := 0; g < goroutines; g++ {
		for i := 0; i < rounds; i++ {
			hs.Observe(values[i%len(values)])
		}
	}

	conc := NewRegistry()
	hc := conc.Histogram("lat_seconds", bounds)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				hc.Observe(values[i%len(values)])
			}
		}()
	}
	wg.Wait()

	if hc.count.Load() != hs.count.Load() {
		t.Fatalf("count = %d, want %d", hc.count.Load(), hs.count.Load())
	}
	if math.Abs(hc.Sum()-hs.Sum()) > 1e-9*hs.Sum() {
		t.Fatalf("sum = %v, want %v", hc.Sum(), hs.Sum())
	}
	if got, want := render(conc), render(serial); got != want {
		t.Errorf("concurrent exposition differs from serial:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryConcurrentRegistration races instrument registration (new
// names and label sets), observation and WriteMetrics; run under -race
// this is the memory-safety check for the whole metrics plane.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Help(fmt.Sprintf("fam_%d_total", i%10), "racing help")
				r.Counter(fmt.Sprintf("fam_%d_total", i%10), L("g", fmt.Sprint(g))).Inc()
				r.Gauge(fmt.Sprintf("depth_%d", i%5)).Set(int64(i))
				r.Histogram("lat_seconds", nil, L("g", fmt.Sprint(g))).Observe(float64(i) / 100)
				if i%50 == 0 {
					if err := r.WriteMetrics(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		for i := 0; i < 10; i++ {
			if got := r.Counter(fmt.Sprintf("fam_%d_total", i), L("g", fmt.Sprint(g))).Value(); got != 20 {
				t.Fatalf("fam_%d_total{g=%d} = %d, want 20", i, g, got)
			}
		}
	}
}
