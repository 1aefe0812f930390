package hwmap

import (
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Partitioner caches the last Partition result and reuses it while the
// directory table is provably unchanged. The zero value is ready to use.
//
// Identity is the (database, table pointer, table revision) triple: the
// solver's incremental path hands back the same *rel.Table when a
// re-solve changed nothing, and every rel.Table mutation bumps its
// revision, so pointer+revision equality guarantees ED and the nine
// implementation tables would regenerate byte-identically.
type Partitioner struct {
	db  *sqlmini.DB
	d   *rel.Table
	rev uint64
	m   *Mapping
}

// PartitionIncremental is Partition with reuse: when db and d match the
// previous call and d's revision has not moved, the cached Mapping is
// returned with reused=true and no SQL runs. Otherwise it partitions from
// scratch and refreshes the cache.
func (p *Partitioner) PartitionIncremental(db *sqlmini.DB, d *rel.Table) (*Mapping, bool, error) {
	if p.m != nil && p.db == db && p.d == d && p.rev == d.Revision() {
		return p.m, true, nil
	}
	m, err := Partition(db, d)
	if err != nil {
		p.m = nil
		return nil, false, err
	}
	p.db, p.d, p.rev, p.m = db, d, d.Revision(), m
	return m, false, nil
}
