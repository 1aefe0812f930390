package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const benchmarkJSON = "../../BENCHMARK.json"

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness in
// sync: the same workloads, and the same metrics with the same units and
// directions, in the same order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
	same := func(kind string, listed []specMetric, harness []metricDef) {
		if len(listed) != len(harness) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(listed), len(harness))
		}
		for i := 0; i < len(listed) && i < len(harness); i++ {
			j, h := listed[i], harness[i]
			if j.Name != h.name || j.Unit != h.unit || j.Better != h.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s",
					kind, i, j.Name, j.Unit, j.Better, h.name, h.unit, h.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
}

// TestSmoke runs every workload at its --short size, untraced and traced,
// and checks that each run passes its output checks and prints every
// metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, log bytes.Buffer
				args := []string{"--workload", w, "--short", "--seed", "3", "--trace", trace, "--work-dir", t.TempDir()}
				if code := realMain(args, &out, &log); code != 0 {
					t.Fatalf("exit %d\n%s", code, log.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				if trace == "0" {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}
