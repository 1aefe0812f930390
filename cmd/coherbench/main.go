// Command coherbench is coherdb's benchmark: four workloads that together
// cover the designer's loop the paper is about, each measured end to end
// and attributed layer by layer.
//
//	pipeline      push-button core pipeline runs (generate, invariants,
//	              deadlock story, hardware mapping)
//	edit-recheck  seeded one-row SQL edits, each committed and re-checked
//	              incrementally
//	serve         two line-protocol connections to an in-process server
//	explore       exhaustive model checking, in memory and under a 256 KiB
//	              spill budget
//
// Usage:
//
//	coherbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--short]
//	coherbench --compare A.json... -- B.json...
//
// A run prints a record line (host fingerprint, workload, seed, ops and
// every metric as {name, unit, value}) and, as its last line, the result
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 measures
// the end-to-end metrics; --trace 1 measures the same workload untraced and
// then traced, and prints the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"coherdb/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	short    bool
	// workDir holds the explore workload's spill directories.
	workDir string
	// log receives diagnostics: failed checks, self times, the summary.
	log io.Writer
}

// syncWriter serializes writes from the serve workload's connections.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// failLog reports why an output check failed, for the first few failures
// of a phase; every failure counts in ops_failed regardless.
func failLog(w io.Writer, failed int, err error) {
	if failed <= 5 {
		fmt.Fprintln(w, "coherbench: output check failed:", err)
	}
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coherbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the edit script and the serve mix")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and then traced, and prints the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write the spans as Chrome trace_event JSON to this file")
	fs.BoolVar(&o.short, "short", false, "smallest sizes: 1 pipeline run, 200 edits, 1 s of serving, explore without extra ops")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for spill files")
	compare := fs.Bool("compare", false, "compare run files: --compare A.json... -- B.json...")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "with --compare, the file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *benchJSON, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "coherbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "coherbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "coherbench: --seconds must be positive")
		return 2
	}
	o.trace = *trace == 1
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.log = &syncWriter{w: stderr}
	rec, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "coherbench:", err)
		return 1
	}
	if err := rec.write(stdout); err != nil {
		fmt.Fprintln(stderr, "coherbench:", err)
		return 1
	}
	return 0
}

// A bench is one workload between set-up and exit.
type bench interface {
	// warmUp runs the untimed warm-up; its operations count as attempted.
	warmUp() (*phase, error)
	// measure runs one phase. With sz.reps nil it repeats until sz.dur has
	// passed; otherwise it repeats exactly sz.reps[i] times per client i,
	// which replays an earlier phase's size. A non-nil tr records spans.
	measure(sz size, tr obs.Tracer) (*phase, error)
	// layers computes the per-layer metrics from an untraced and a traced
	// phase of the same size.
	layers(plain, traced *phase, sp spanStats) map[string]float64
	close()
}

// workload describes how to set up one bench.
type workload struct {
	name  string
	setup func(o options) (bench, error)
	// spansPerOp bounds the spans one traced operation records, which
	// sizes the collector so that no span is dropped.
	spansPerOp int
	// short is the measured size under --short.
	short size
	// untracedShare is the part of --seconds a traced run spends on its
	// untraced phase, which the traced phase then replays. Serve runs so
	// many statements that an eighth of the time yields ~130k of them, and
	// the half would hold two million spans in memory.
	untracedShare float64
}

var (
	once   = size{reps: []int{1}}
	oneSec = size{dur: time.Second}
)

var workloads = []workload{
	{"pipeline", setupPipeline, 5, once, 0.5},
	{"edit-recheck", setupEditRecheck, 4, once, 0.5},
	{"serve", setupServe, 4, oneSec, 0.125},
	{"explore", setupExplore, 3, once, 0.5},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// size bounds a phase; see bench.measure.
type size struct {
	dur  time.Duration
	reps []int
}

// more reports whether client i, having completed done repetitions of a
// phase that started at start, should run another. A timed phase always
// runs at least one.
func (s size) more(i, done int, start time.Time) bool {
	if s.reps != nil {
		return done < s.reps[i]
	}
	return done == 0 || time.Since(start) < s.dur
}

// call runs f inside a child span of parent named after the layer call.
func call(parent *obs.Span, name string, f func() error) error {
	sp := parent.Child(name)
	err := f()
	sp.Finish()
	return err
}

// phase is what one measured phase produced.
type phase struct {
	// lat holds one latency per timed operation, unless win is set.
	lat durations
	// win, set by a workload whose phases run too many operations to keep
	// each latency, summarizes them window by window instead of lat.
	win *windowed
	// work counts the units work_per_s reports, done in busy time.
	work float64
	busy time.Duration
	// reps is the phase's size, replayable through size.reps.
	reps []int
	// ops and failed count the operations attempted and the output checks
	// that failed.
	ops, failed int
	// counts holds per-layer values the workload measured itself.
	counts map[string]float64
	// alloc and gcs are the bytes allocated and collections run during
	// the phase.
	alloc uint64
	gcs   uint32
}

// latency returns the phase's median and p90 operation latency in
// microseconds: over the whole sample, or for a windowed phase the median
// over its windows of each window's percentile.
func (ph *phase) latency() (p50, p90 float64) {
	if ph.win != nil {
		return ph.win.median(func(w window) float64 { return w.p50 }), ph.win.median(func(w window) float64 { return w.p90 })
	}
	return ph.lat.pct(50), ph.lat.pct(90)
}

// meanLatency returns the phase's mean operation latency in microseconds.
func (ph *phase) meanLatency() float64 {
	if ph.win != nil {
		return ph.win.mean()
	}
	return ph.lat.mean()
}

// measure runs one phase after a collection, and records its allocations.
func measure(b bench, sz size, tr obs.Tracer) (*phase, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := b.measure(sz, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	ph.alloc = after.TotalAlloc - before.TotalAlloc
	ph.gcs = after.NumGC - before.NumGC
	return ph, nil
}

// measureTraced replays plain's size twice: traced, and then untraced
// again while the spans are still held. The collector's buffer is large, and
// a larger live heap means fewer collections, so the overhead comparison
// uses the second untraced phase, which runs with the same heap. The
// collector is sized from plain's operation count so that every span is
// kept; if one were dropped anyway, the run refuses to report.
func measureTraced(b bench, plain *phase, spansPerOp int) (traced, again *phase, spans []obs.Span, err error) {
	col := obs.NewCollector(plain.ops*spansPerOp + 64)
	if traced, err = measure(b, size{reps: plain.reps}, col); err != nil {
		return nil, nil, nil, err
	}
	if again, err = measure(b, size{reps: plain.reps}, nil); err != nil {
		return nil, nil, nil, err
	}
	if d := col.Dropped(); d > 0 {
		return nil, nil, nil, fmt.Errorf("the span collector dropped %d spans; refusing to report per-layer metrics", d)
	}
	return traced, again, col.Spans(), nil
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// setUp sets the workload up n times, closing all but the last bench, and
// returns that one with the median set-up time in seconds.
func setUp(w *workload, o options, n int) (bench, float64, error) {
	var b bench
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		nb, err := w.setup(o)
		if err != nil {
			if b != nil {
				b.close()
			}
			return nil, 0, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		if b != nil {
			b.close()
		}
		b = nb
	}
	return b, median(times), nil
}

func runWorkload(o options) (*record, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	full, part, n := size{dur: o.seconds}, size{dur: time.Duration(float64(o.seconds) * w.untracedShare)}, setups
	if o.short {
		full, part, n = w.short, w.short, 1
	}
	b, setupS, err := setUp(w, o, n)
	if err != nil {
		return nil, err
	}
	defer b.close()

	rec := &record{workload: o.workload, seed: o.seed, trace: o.trace}
	warm, err := b.warmUp()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rec.add(warm)

	if !o.trace {
		ph, err := measure(b, full, nil)
		if err != nil {
			return nil, err
		}
		rec.add(ph)
		p50, p90 := ph.latency()
		rec.defs, rec.values = endToEnd, map[string]float64{
			"setup_s":     setupS,
			"op_p50_ms":   p50 / 1000,
			"op_p90_ms":   p90 / 1000,
			"work_per_s":  ph.work / ph.busy.Seconds(),
			"peak_rss_mb": peakRSSMiB(),
		}
		writeSummary(o.log, rec, ph)
		return rec, nil
	}

	plain, err := measure(b, part, nil)
	if err != nil {
		return nil, err
	}
	rec.add(plain)
	traced, again, spans, err := measureTraced(b, plain, w.spansPerOp)
	if err != nil {
		return nil, err
	}
	rec.add(traced)
	rec.add(again)
	if o.traceOut != "" {
		if err := obs.WriteChromeTraceFile(o.traceOut, spans); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
	}
	sp := analyzeSpans(spans)
	fmt.Fprintf(o.log, "%s: self time by span (%d spans)\n", o.workload, len(spans))
	writeSelfTimes(o.log, sp)
	values := b.layers(plain, traced, sp)
	ops := float64(plain.ops)
	values["go.alloc_kb_per_op"] = float64(plain.alloc) / 1024 / ops
	values["go.gc_per_op"] = float64(plain.gcs) / ops
	values["harness.self_us_per_op"] = float64(sp.rootSelf) / float64(time.Microsecond) / float64(traced.ops)
	// Both phases ran the same operations, so their mean latencies compare
	// the same work.
	if m := again.meanLatency(); m > 0 {
		values["trace.overhead_pct"] = 100 * (traced.meanLatency() - m) / m
	}
	rec.defs, rec.values = perLayer, values
	writeSummary(o.log, rec, plain)
	return rec, nil
}

// writeSummary prints the human-readable form of a run to log: the
// metrics, and the latency tail at the highest percentile the sample
// supports.
func writeSummary(log io.Writer, rec *record, ph *phase) {
	fmt.Fprintf(log, "%s seed=%d trace=%v: %d ops attempted, %d failed\n",
		rec.workload, rec.seed, rec.trace, rec.ops, rec.failed)
	p50, p90 := ph.latency()
	if ph.win != nil {
		fmt.Fprintf(log, "  latency over %d ops, median of %d windows: p50 %.1f us, p90 %.1f us, p99.9 %.1f us\n",
			ph.win.n, len(ph.win.windows), p50, p90, ph.win.median(func(w window) float64 { return w.p999 }))
	} else {
		fmt.Fprintf(log, "  latency over %d ops: p50 %.1f us, p90 %.1f us", len(ph.lat), p50, p90)
		if name, p, ok := tailPercentile(len(ph.lat)); ok {
			fmt.Fprintf(log, "; tail %s %.1f us", name, ph.lat.pct(p))
		}
		fmt.Fprintln(log)
	}
	for _, d := range rec.defs {
		fmt.Fprintf(log, "  %-36s %14.6g %s\n", d.name, rec.values[d.name], d.unit)
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM), or
// falls back to the runtime's view of memory obtained from the OS where
// /proc is missing.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// record is one run's output.
type record struct {
	workload    string
	seed        int64
	trace       bool
	ops, failed int
	defs        []metricDef
	values      map[string]float64
}

func (r *record) add(ph *phase) {
	r.ops += ph.ops
	r.failed += ph.failed
}

// host fingerprints the machine and build a run came from.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Revision += "+dirty"
		}
	}
	return h
}

// runLine is the record line: everything a later --compare needs.
type runLine struct {
	Host      host         `json:"host"`
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Trace     int          `json:"trace"`
	Ops       int          `json:"ops"`
	OpsFailed int          `json:"ops_failed"`
	Metrics   []metricLine `json:"metrics"`
}

type metricLine struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *record) write(w io.Writer) error {
	if r.ops == 0 {
		return errors.New("no operation was attempted")
	}
	trace := 0
	if r.trace {
		trace = 1
	}
	line := runLine{Host: fingerprint(), Workload: r.workload, Seed: r.seed, Trace: trace, Ops: r.ops, OpsFailed: r.failed}
	res := resultLine{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, d := range r.defs {
		v := r.values[d.name]
		line.Metrics = append(line.Metrics, metricLine{Name: d.name, Unit: d.unit, Value: v})
		res.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(line); err != nil {
		return err
	}
	return enc.Encode(res)
}
