package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	sp := StartSpan(nil, "anything", String("k", "v"))
	if sp != nil {
		t.Fatalf("StartSpan(nil, ...) = %v, want nil", sp)
	}
	// All methods must be safe on the nil span.
	sp.SetAttr(Int("n", 1))
	child := sp.Child("child")
	if child != nil {
		t.Fatalf("nil span Child = %v, want nil", child)
	}
	sp.Finish()
}

func TestSpanNesting(t *testing.T) {
	c := NewCollector(16)
	root := c.StartSpan("root", String("phase", "outer"))
	inner := root.Child("inner")
	leaf := inner.Child("leaf", Int("depth", 2))
	leaf.Finish()
	inner.Finish()
	root.SetAttr(Duration("took", 5*time.Millisecond))
	root.Finish()

	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Finished innermost-first.
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, i, l := byName["root"], byName["inner"], byName["leaf"]
	if r.ParentID != 0 {
		t.Errorf("root parent = %d, want 0", r.ParentID)
	}
	if i.ParentID != r.ID {
		t.Errorf("inner parent = %d, want root id %d", i.ParentID, r.ID)
	}
	if l.ParentID != i.ID {
		t.Errorf("leaf parent = %d, want inner id %d", l.ParentID, i.ID)
	}
	if len(r.Attrs) != 2 {
		t.Errorf("root attrs = %v, want phase + took", r.Attrs)
	}
	if spans[0].Name != "leaf" || spans[2].Name != "root" {
		t.Errorf("span order = %q, %q, %q; want leaf, inner, root",
			spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

func TestCollectorRingOverflow(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.StartSpan("s", Int("i", i)).Finish()
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if c.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", c.Dropped())
	}
	spans := c.Spans()
	// The four youngest survive, oldest first: i = 6, 7, 8, 9.
	for k, want := range []string{"6", "7", "8", "9"} {
		if got := spans[k].Attrs[0].Value; got != want {
			t.Errorf("span %d attr i = %s, want %s", k, got, want)
		}
	}
	c.Reset()
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d, want 0, 0", c.Len(), c.Dropped())
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := c.StartSpan("work")
				s.Child("sub").Finish()
				s.Finish()
			}
		}()
	}
	wg.Wait()
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want full ring 64", c.Len())
	}
	if got := c.Dropped() + 64; got != 1600 {
		t.Fatalf("retained+dropped = %d, want 1600", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	c := NewCollector(8)
	s := c.StartSpan("query", String("sql", `SELECT "x"`))
	s.Child("join").Finish()
	s.Finish()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		if rec["name"] == "" {
			t.Errorf("line %q lacks a name", line)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits_total", L("worker", "all")).Inc()
				r.Gauge("depth").Set(int64(i))
				r.Histogram("latency_seconds", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", L("worker", "all")).Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("latency_seconds", nil).count.Load(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("coherdb_invariant_duration_seconds", "per-invariant query time")
	r.Counter("coherdb_invariant_violations_total", L("invariant", "dir-pv-consistent")).Add(2)
	r.Counter("coherdb_invariant_violations_total", L("invariant", "alloc-from-free")).Inc()
	r.Gauge("coherdb_vcg_nodes", L("assignment", "vc4")).Set(5)
	h := r.Histogram("coherdb_invariant_duration_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP coherdb_invariant_duration_seconds per-invariant query time",
		"# TYPE coherdb_invariant_duration_seconds histogram",
		`coherdb_invariant_duration_seconds_bucket{le="0.001"} 1`,
		`coherdb_invariant_duration_seconds_bucket{le="+Inf"} 2`,
		"coherdb_invariant_duration_seconds_count 2",
		"# TYPE coherdb_invariant_violations_total counter",
		`coherdb_invariant_violations_total{invariant="alloc-from-free"} 1`,
		`coherdb_invariant_violations_total{invariant="dir-pv-consistent"} 2`,
		"# TYPE coherdb_vcg_nodes gauge",
		`coherdb_vcg_nodes{assignment="vc4"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear sorted: duration before violations before vcg.
	di := strings.Index(out, "coherdb_invariant_duration_seconds")
	vi := strings.Index(out, "coherdb_invariant_violations_total")
	gi := strings.Index(out, "coherdb_vcg_nodes")
	if !(di < vi && vi < gi) {
		t.Errorf("families not sorted: positions %d, %d, %d\n%s", di, vi, gi, out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total", L("sql", "SELECT \"x\"\nFROM t")).Inc()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `q_total{sql="SELECT \"x\"\nFROM t"} 1`) {
		t.Errorf("bad escaping:\n%s", buf.String())
	}
}
