package protocol

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/sqlmini"
)

// generationGolden is one controller's frozen generation result: the
// sha256 of its WriteCSV encoding, its shape, the solver's work counts,
// and the sha256 of its spec's constraint texts. Recorded from the
// text-compiled rule chains, so any change in how rules become
// constraints must reproduce them exactly.
type generationGolden struct {
	csv                          string // sha256 prefix of WriteCSV
	rows, cols                   int
	candidates, memoHits, pruned uint64
	steps                        int
	constraints                  string // sha256 prefix of the "col: constraint" lines
}

var frozenGeneration = map[string]generationGolden{
	DirectoryTable: {"d6442d6c5ed7c9f4", 483, 30, 63581, 5079, 51417, 30, "3a4c67e5ce2402a2"},
	MemoryTable:    {"dfae330328e18753", 10, 14, 260, 0, 140, 14, "a4a5185fe6ea39a2"},
	CacheTable:     {"a4c9b73cf2f2699a", 67, 15, 2687, 0, 1898, 15, "d8e143c0c6b42f03"},
	NodeTable:      {"e8825e36c536d8c4", 48, 14, 2736, 62, 2128, 14, "d62e2173ae0c39a7"},
	RACTable:       {"1a8c8d30d57e3037", 29, 18, 1232, 0, 786, 18, "2e828c171cb1aaf5"},
	IOBridgeTable:  {"18f0240ebbbeef08", 11, 14, 336, 0, 206, 14, "fd31e108c4101b08"},
	InterruptTable: {"8da81adce970c0f9", 4, 14, 102, 0, 54, 14, "c25e9ae44f5fda7b"},
	SyncTable:      {"6f5e6e3800719e8d", 3, 14, 76, 0, 38, 14, "70a9368deada1d0a"},
}

// sha16 returns the first 16 hex digits of the sha256 of b.
func sha16(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// constraintDigest hashes every "col: constraint" line of spec, in column
// order, skipping unconstrained columns.
func constraintDigest(spec *constraint.Spec) string {
	var sb strings.Builder
	for _, col := range spec.ColumnNames() {
		if e := spec.Constraint(col); e != nil {
			sb.WriteString(col + ": " + e.String() + "\n")
		}
	}
	return sha16([]byte(sb.String()))
}

// TestFrozenGenerationGolden pins the eight generated controller tables,
// the solver's work counts and every constraint text, with the default
// worker count and serially.
func TestFrozenGenerationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all eight controllers twice")
	}
	for _, workers := range []int{0, 1} {
		db := sqlmini.NewDB()
		stats, err := GenerateAllOpts(db, constraint.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, sb := range SpecBuilders() {
			want := frozenGeneration[sb.Name]
			spec, err := sb.Build()
			if err != nil {
				t.Fatal(err)
			}
			tab, ok := db.Table(sb.Name)
			if !ok {
				t.Fatalf("%s not installed", sb.Name)
			}
			var csv strings.Builder
			if err := tab.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			st := stats[sb.Name]
			got := generationGolden{
				csv:         sha16([]byte(csv.String())),
				rows:        tab.NumRows(),
				cols:        tab.NumCols(),
				candidates:  st.Candidates,
				memoHits:    st.MemoHits,
				pruned:      st.Pruned,
				steps:       st.Steps,
				constraints: constraintDigest(spec),
			}
			if st.Rows != got.rows {
				t.Errorf("workers=%d %s: Stats.Rows %d, table has %d", workers, sb.Name, st.Rows, got.rows)
			}
			if got != want {
				t.Errorf("workers=%d %s:\n got %#v\nwant %#v", workers, sb.Name, got, want)
			}
		}
	}
}
