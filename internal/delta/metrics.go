package delta

import "coherdb/internal/obs"

// Counters registers (or fetches) the delta-layer counters on reg:
//
//	coherdb_delta_rows_reused_total   — input rows a consumer did not
//	                                    re-scan: every input row of a
//	                                    skipped node, and the rows a node
//	                                    re-checked over the changed rows
//	                                    did not re-read
//	coherdb_delta_nodes_skipped_total — consumer nodes (invariants,
//	                                    analyses, reconstructions) skipped
//	                                    because their inputs were untouched
//
// Both return nil when reg is nil; callers guard their Inc/Add sites.
func Counters(reg *obs.Registry) (rowsReused, nodesSkipped *obs.Counter) {
	if reg == nil {
		return nil, nil
	}
	reg.Help("coherdb_delta_rows_reused_total",
		"Input rows not re-scanned: those of delta-skipped nodes, and those a row-level re-check did not re-read.")
	reg.Help("coherdb_delta_nodes_skipped_total",
		"Consumer nodes skipped because their input columns were untouched by the delta.")
	return reg.Counter("coherdb_delta_rows_reused_total"),
		reg.Counter("coherdb_delta_nodes_skipped_total")
}
