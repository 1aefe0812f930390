package rel

import "coherdb/internal/obs"

// PublishDictMetrics registers the shared dictionary's gauges on reg and
// returns a refresh function that re-samples them; call it from a
// scrape hook so /metrics always reports current values:
//
//	coherdb_dict_size{dict="shared"}   — interned values (including NULL)
//	coherdb_dict_bytes{dict="shared"}  — approximate resident bytes (see Dict.Bytes)
func PublishDictMetrics(reg *obs.Registry) func() {
	if reg == nil {
		return func() {}
	}
	reg.Help("coherdb_dict_size", "Values interned per dictionary (including NULL).")
	reg.Help("coherdb_dict_bytes", "Approximate resident bytes per dictionary.")
	lb := obs.L("dict", "shared")
	size := reg.Gauge("coherdb_dict_size", lb)
	bytes := reg.Gauge("coherdb_dict_bytes", lb)
	refresh := func() {
		d := SharedDict()
		size.Set(int64(d.Len()))
		bytes.Set(d.Bytes())
	}
	refresh()
	return refresh
}
