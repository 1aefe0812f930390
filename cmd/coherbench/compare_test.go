package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bound(b float64) *float64 { return &b }

func TestVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  *float64
		want   string
	}{
		{"slower by more than the bound", steady, scale(steady, 1.2), "lower", bound(0.1), "worse"},
		{"slower by less than the bound", steady, scale(steady, 1.05), "lower", bound(0.1), "unchanged"},
		{"faster by more than the bound", steady, scale(steady, 0.8), "lower", bound(0.1), "better"},
		{"throughput fell", steady, scale(steady, 0.8), "higher", bound(0.1), "worse"},
		{"throughput rose", steady, scale(steady, 1.2), "higher", bound(0.1), "better"},
		{"wide spread on A", []float64{5, 10, 15, 8, 12}, steady, "lower", bound(0.1), "unresolved"},
		{"wide spread on B", steady, []float64{5, 10, 15, 8, 12}, "lower", bound(0.1), "unresolved"},
		{"wide spread, B beats every A", []float64{10, 14, 18, 12, 16}, []float64{5, 6, 7, 8, 9}, "lower", bound(0.1), "better"},
		{"no bound", steady, scale(steady, 2), "lower", nil, "-"},
	} {
		_, got := verdict(summarize(c.a), summarize(c.b), c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// writeRuns saves one record line per value, as a run's standard output
// would hold it.
func writeRuns(t *testing.T, dir, name string, values []float64, failed int) []string {
	t.Helper()
	var paths []string
	for i, v := range values {
		line := runLine{Workload: "pipeline", Ops: 100, OpsFailed: failed, Metrics: []metricLine{
			{Name: "op_p50_ms", Unit: "ms", Value: v},
			{Name: "work_per_s", Unit: "1/s", Value: 1000 / v},
		}}
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+string(rune('0'+i))+".json")
		if err := os.WriteFile(p, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, dir, "a", []float64{10, 10.1, 9.9, 10.05, 9.95}, 0)
	same := writeRuns(t, dir, "b", []float64{10.02, 10.08, 9.92, 10, 9.97}, 0)
	slow := writeRuns(t, dir, "c", []float64{12, 12.1, 11.9, 12.05, 11.95}, 0)
	failing := writeRuns(t, dir, "d", []float64{10.02, 10.08, 9.92, 10, 9.97}, 1)

	run := func(b []string) (int, string) {
		var out, errOut bytes.Buffer
		args := append(append(append([]string{"--compare", "--benchmark", spec}, base...), "--"), b...)
		code := realMain(args, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	if code, out := run(same); code != 0 || strings.Contains(out, "worse\n") {
		t.Errorf("same runs: exit %d\n%s", code, out)
	}
	code, out := run(slow)
	if code != 1 || strings.Count(out, "worse\n") != 2 {
		t.Errorf("slower runs: exit %d, want 1 with op_p50_ms and work_per_s worse\n%s", code, out)
	}
	if code, out := run(failing); code != 1 || !strings.Contains(out, "ops_failed_frac") {
		t.Errorf("runs with failures: exit %d, want 1 naming ops_failed_frac\n%s", code, out)
	}
	var errOut bytes.Buffer
	if code := realMain([]string{"--compare", "--benchmark", spec, base[0]}, &errOut, &errOut); code != 2 {
		t.Errorf("--compare without --: exit %d, want 2", code)
	}
}
