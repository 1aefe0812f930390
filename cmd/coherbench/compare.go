package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads every record line (the line carrying "workload") from
// the saved standard output of runs.
func loadRuns(paths []string) ([]runLine, error) {
	var out []runLine
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		found := false
		for sc.Scan() {
			var r runLine
			if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
				out = append(out, r)
				found = true
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !found {
			return nil, fmt.Errorf("%s: no coherbench run record", p)
		}
	}
	return out, nil
}

// comparison is one (workload, metric) row of a --compare report.
type comparison struct {
	workload, metric, unit string
	a, b                   summary
	// change is how much worse B's median is than A's, as a share of A's
	// median; negative means better.
	change  float64
	verdict string
}

// summary is one side's median and quartiles.
type summary struct {
	n              int
	median, q1, q3 float64
	values         []float64
	spread         float64 // (q3 - q1) / median
}

func summarize(values []float64) summary {
	s := summary{n: len(values), values: values, median: median(values)}
	s.q1, s.q3 = s.median, s.median
	if len(values) >= 2 {
		s.q1, s.q3 = quartiles(values)
	}
	if s.median != 0 {
		s.spread = math.Abs(s.q3-s.q1) / math.Abs(s.median)
	}
	return s
}

// verdict judges B against A for one metric. With a bound: "worse" or
// "better" when the medians differ by more than the bound, "unchanged"
// when by less, and "unresolved" when either side's interquartile range
// is wider than the bound, unless every B run beats every A run. Without
// a bound (per-layer metrics) the verdict is "-".
func verdict(a, b summary, better string, bound *float64) (change float64, v string) {
	switch {
	case a.median != 0:
		change = (b.median - a.median) / math.Abs(a.median)
	case b.median != a.median:
		change = math.Copysign(math.Inf(1), b.median-a.median)
	}
	if better == "higher" {
		change = -change
	}
	if bound == nil {
		return change, "-"
	}
	if (a.spread > *bound || b.spread > *bound) && !dominates(b.values, a.values, better) {
		return change, "unresolved"
	}
	switch {
	case change > *bound:
		return change, "worse"
	case change < -*bound:
		return change, "better"
	}
	return change, "unchanged"
}

// dominates reports whether every value of b is better than every value of
// a.
func dominates(b, a []float64, better string) bool {
	bs, as := sortedCopy(b), sortedCopy(a)
	if better == "higher" {
		return bs[0] > as[len(as)-1]
	}
	return bs[len(bs)-1] < as[0]
}

// compareRuns pairs up the metrics both sides report, workload by
// workload, in BENCHMARK.json order.
func compareRuns(a, b []runLine, spec *benchSpec) []comparison {
	type key struct{ workload, metric string }
	collect := func(runs []runLine) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range runs {
			for _, v := range r.Metrics {
				k := key{r.Workload, v.Name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	av, bv := collect(a), collect(b)
	var workloads []string
	seen := map[string]bool{}
	for _, r := range append(append([]runLine(nil), a...), b...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	sort.Strings(workloads)
	var out []comparison
	for _, w := range workloads {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			k := key{w, m.Name}
			if len(av[k]) == 0 || len(bv[k]) == 0 {
				continue
			}
			c := comparison{workload: w, metric: m.Name, unit: m.Unit, a: summarize(av[k]), b: summarize(bv[k])}
			c.change, c.verdict = verdict(c.a, c.b, m.Better, m.Bound)
			out = append(out, c)
		}
	}
	return out
}

// failedFrac sums ops_failed over ops by workload.
func failedFrac(runs []runLine) map[string]float64 {
	failed, ops := map[string]int{}, map[string]int{}
	for _, r := range runs {
		failed[r.Workload] += r.OpsFailed
		ops[r.Workload] += r.Ops
	}
	out := map[string]float64{}
	for w, n := range ops {
		if n > 0 {
			out[w] = float64(failed[w]) / float64(n)
		}
	}
	return out
}

// runCompare implements --compare A.json... -- B.json...: it exits 1 when
// a metric got worse or more operations failed on B than on A.
func runCompare(args []string, specPath string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: coherbench --compare A.json... -- B.json...")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "coherbench:", err)
		return 2
	}
	a, err := loadRuns(args[:split])
	if err != nil {
		fmt.Fprintln(stderr, "coherbench:", err)
		return 2
	}
	b, err := loadRuns(args[split+1:])
	if err != nil {
		fmt.Fprintln(stderr, "coherbench:", err)
		return 2
	}
	rows := compareRuns(a, b, spec)
	fmt.Fprintf(stdout, "%-13s %-30s %-8s %-36s %-36s %9s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse by", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-30s %-8s %-36s %-36s %+8.1f%%  %s\n",
			r.workload, r.metric, r.unit, r.a.String(), r.b.String(), 100*r.change, r.verdict)
		if r.verdict == "worse" {
			code = 1
		}
	}
	fa, fb := failedFrac(a), failedFrac(b)
	var workloads []string
	for w := range fb {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		if fb[w] > fa[w] {
			fmt.Fprintf(stdout, "%-13s %-30s %g -> %g  worse\n", w, "ops_failed_frac", fa[w], fb[w])
			code = 1
		}
	}
	return code
}

func (s summary) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", s.median, s.q1, s.q3, s.n)
}
