package main

// metricDef names one reported metric. The lists below must match the
// end_to_end and per_layer lists of BENCHMARK.json at the repository root
// (TestBenchmarkJSONMatchesHarness keeps them in sync); README.md says which
// end-to-end metric each per-layer metric should move, and on which
// workload.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every workload reports from an untraced run.
// "An operation" is one push-button pipeline run, one edit with its
// re-check, one server statement, or one pair of explorations; work_per_s
// counts pipeline runs, edits, statements or explored states.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a traced run reports. A workload that never
// calls a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	// Every workload.
	{"go.alloc_kb_per_op", "KiB", "lower"},
	{"go.gc_per_op", "count", "lower"},
	{"harness.self_us_per_op", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},

	// pipeline: the four core.Pipeline phases and what they produced.
	{"core.generate_ms", "ms", "lower"},
	{"core.invariants_ms", "ms", "lower"},
	{"core.deadlock_ms", "ms", "lower"},
	{"core.map_ms", "ms", "lower"},
	{"constraint.candidates", "count", "lower"},
	{"constraint.rows", "count", "lower"},
	{"constraint.memo_hits", "count", "higher"},
	{"deadlock.dep_rows", "count", "lower"},
	{"deadlock.vcg_edges", "count", "lower"},
	{"deadlock.cycles", "count", "lower"},
	{"hwmap.ed_rows", "count", "lower"},

	// edit-recheck: DB.Exec, Revision.Commit and Suite.RunDelta per edit.
	{"sqlmini.dml_p50_us", "us", "lower"},
	{"sqlmini.dml_p99_us", "us", "lower"},
	{"sqlmini.commit_p50_us", "us", "lower"},
	{"check.rundelta_p50_us", "us", "lower"},
	{"check.rundelta_p99_us", "us", "lower"},
	{"check.rechecked_per_edit", "count", "lower"},
	{"check.skip_ratio", "ratio", "higher"},
	{"delta.rows_per_edit", "count", "lower"},
	{"sqlmini.rows_scanned_per_edit", "count", "lower"},

	// edit-recheck and serve.
	{"sqlmini.plan_cache_hit_ratio", "ratio", "higher"},

	// serve: client-observed statement kinds, the same mix in-process,
	// and the engine counters behind them.
	{"server.select_p50_us", "us", "lower"},
	{"server.dml_p50_us", "us", "lower"},
	{"server.recheck_p50_us", "us", "lower"},
	{"sqlmini.session_select_p50_us", "us", "lower"},
	{"sqlmini.session_dml_p50_us", "us", "lower"},
	{"check.session_recheck_p50_us", "us", "lower"},
	{"server.proto_overhead_us", "us", "lower"},
	{"rel.epochs_per_s", "1/s", "higher"},
	{"sqlmini.rows_scanned_per_stmt", "count", "lower"},
	{"sqlmini.index_scans_per_stmt", "count", "higher"},
	{"sqlmini.hash_joins_per_stmt", "count", "lower"},

	// explore: both engines and the segment store under the spill budget.
	{"modelcheck.default_s", "s", "lower"},
	{"modelcheck.spill_s", "s", "lower"},
	{"modelcheck.states", "count", "lower"},
	{"modelcheck.edges", "count", "lower"},
	{"modelcheck.depth", "count", "lower"},
	{"modelcheck.default_bytes_per_state", "B", "lower"},
	{"segment.bytes_per_state", "B", "lower"},
	{"segment.spills", "count", "lower"},
	{"segment.faults", "count", "lower"},
	{"modelcheck.replays", "count", "lower"},
	{"segment.resident_kb", "KiB", "lower"},
	{"segment.spilled_kb", "KiB", "lower"},
	{"segment.index_kb", "KiB", "lower"},
	{"modelcheck.frontier_kb", "KiB", "lower"},
}
