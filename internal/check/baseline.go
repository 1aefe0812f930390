package check

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"coherdb/internal/delta"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Baseline persistence: a fully-passing invariant run is summarized to a
// small cache file keyed by a hash of the invariant specs and the decoded
// contents of every table they read. A later process whose hash matches
// can skip the baseline run entirely — the first -incremental check of a
// session then costs as little as a no-op delta. The cache also carries
// the suite's serialized delta.Graph, so the dependency extraction
// (SQL → input columns) is not repeated either.
//
// Soundness: the hash covers exactly the inputs the skipped invariants
// read (value-level, so it is independent of dictionary code assignment
// and process history). Invariants whose SQL could not be analyzed have
// unknown inputs and are never carried over — LoadBaseline leaves them to
// RunDelta, which re-checks them unconditionally.

// baselineFile is the on-disk cache format.
type baselineFile struct {
	Hash       string          `json:"hash"`
	Invariants []string        `json:"invariants"`
	Graph      json.RawMessage `json:"graph"`
}

// DependencyGraph exports the suite's invariant→inputs mapping as a
// delta.Graph (analyzable invariants only).
func (s *Suite) DependencyGraph() *delta.Graph {
	g := delta.NewGraph()
	ins := s.inputSets()
	for i, inv := range s.invs {
		if ins[i] != nil {
			g.Add(inv.Name, ins[i]...)
		}
	}
	return g
}

// RestoreInputs primes the suite's dependency cache from a persisted
// graph, bypassing SQL analysis. Invariants absent from the graph keep a
// nil (always-dirty) input list.
func (s *Suite) RestoreInputs(g *delta.Graph) {
	ins := make([][]delta.Input, len(s.invs))
	for i, inv := range s.invs {
		ins[i] = g.Inputs(inv.Name)
	}
	s.mu.Lock()
	s.inputs = ins
	s.mu.Unlock()
}

// SpecHash fingerprints everything a carried-over result depends on: each
// invariant's name and SQL, and the name, schema and decoded cell values
// of every table the analyzable invariants read. FNV-1a over value keys,
// so it compares across processes regardless of interning order.
func SpecHash(db *sqlmini.DB, s *Suite) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b []byte) {
		for _, c := range b {
			h = (h ^ uint64(c)) * prime
		}
		h = (h ^ 0xff) * prime
	}
	ins := s.inputSets()
	tables := map[string]bool{}
	for i, inv := range s.invs {
		mix([]byte(inv.Name))
		mix([]byte(inv.SQL))
		for _, in := range ins[i] {
			tables[in.Table] = true
		}
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var key []byte
	for _, name := range names {
		mix([]byte(name))
		t, ok := db.Table(name)
		if !ok {
			mix([]byte("!missing"))
			continue
		}
		for _, col := range t.ColumnsRef() {
			mix([]byte(col))
		}
		for i := 0; i < t.NumRows(); i++ {
			for j := 0; j < t.NumCols(); j++ {
				key = t.At(i, j).AppendKey(key[:0])
				mix(key)
			}
		}
	}
	return h
}

// SaveBaseline writes the cache file for a fully-passing run. It refuses
// (without error) to cache runs with failures, errors or skipped results
// — only a complete clean run proves every invariant.
func SaveBaseline(path string, db *sqlmini.DB, s *Suite, results []Result) error {
	if len(results) != len(s.invs) {
		return fmt.Errorf("check: baseline results/suite shape mismatch")
	}
	for _, r := range results {
		if !r.Passed() || r.Skipped {
			return nil
		}
	}
	gbytes, err := delta.EncodeGraph(s.DependencyGraph())
	if err != nil {
		return err
	}
	names := make([]string, len(s.invs))
	for i, inv := range s.invs {
		names[i] = inv.Name
	}
	data, err := json.Marshal(baselineFile{
		Hash:       fmt.Sprintf("%016x", SpecHash(db, s)),
		Invariants: names,
		Graph:      gbytes,
	})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadBaseline validates the cache file against the current database and
// suite and, on a match, returns synthesized all-passing results (empty
// violation tables) plus ok=true. Feed them to RunDelta with the
// session's first (empty) delta: analyzable invariants carry over as
// Skipped, unanalyzable ones re-check. Any mismatch — missing file,
// different suite, different table contents — returns ok=false and the
// caller falls back to a full run.
func LoadBaseline(path string, db *sqlmini.DB, s *Suite) ([]Result, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, false
	}
	if len(bf.Invariants) != len(s.invs) {
		return nil, false
	}
	for i, inv := range s.invs {
		if bf.Invariants[i] != inv.Name {
			return nil, false
		}
	}
	if bf.Hash != fmt.Sprintf("%016x", SpecHash(db, s)) {
		return nil, false
	}
	if g, err := delta.DecodeGraph(bf.Graph); err == nil {
		s.RestoreInputs(g)
	}
	results := make([]Result, len(s.invs))
	for i, inv := range s.invs {
		empty, err := rel.NewTable(inv.Name+"_violations", "violation")
		if err != nil {
			return nil, false
		}
		results[i] = Result{Invariant: inv, Violations: empty}
	}
	return results, true
}
