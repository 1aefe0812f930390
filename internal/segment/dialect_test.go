package segment_test

import (
	"bytes"
	"fmt"
	"testing"

	"coherdb/internal/rel"
	"coherdb/internal/segment"
	"coherdb/internal/sqlmini"
)

// TestRoundTripBothNullDialects drives real query output — produced
// under both NULL dialects (ANSI three-valued and the legacy
// NULL-equals-NULL semantics) over tables containing NULL code 0 —
// through the rel code-vector export hook and a full segment
// pack → seal → serialize → stream round trip, asserting the decoded
// codes are byte-identical to the source table.
func TestRoundTripBothNullDialects(t *testing.T) {
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			db := sqlmini.NewDB()
			db.SetStrictNulls(strict)
			tab, err := rel.NewTable("T", "id", "state", "owner")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				owner := rel.S(fmt.Sprintf("node%d", i%3))
				if i%4 == 0 {
					owner = rel.Value{} // NULL → code 0
				}
				tab.MustInsert(rel.I(int64(i)), rel.S([]string{"I", "S", "M", "E"}[i%4]), owner)
			}
			db.PutTable(tab)
			res, err := db.Query("SELECT id, state, owner FROM T WHERE owner <> 'node1' OR owner IS NULL")
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() == 0 {
				t.Fatal("query returned no rows")
			}
			for _, src := range []*rel.Table{tab, res} {
				n := src.NumRows()
				cols := make([][]uint32, src.NumCols())
				for j := range cols {
					cols[j] = src.ColCodes(j)
				}
				seg := segment.Pack(cols, n)
				var b bytes.Buffer
				if _, err := seg.WriteTo(&b); err != nil {
					t.Fatal(err)
				}
				back, err := segment.Read(&b)
				if err != nil {
					t.Fatal(err)
				}
				seen := 0
				back.Stream(0, n, nil, func(i int, tuple []uint32) bool {
					if len(tuple) != len(cols) {
						t.Fatalf("%s row %d: width %d, want %d", src.Name(), i, len(tuple), len(cols))
					}
					for j := range tuple {
						if want := src.CodeAt(i, j); tuple[j] != want {
							t.Fatalf("%s row %d col %d: code %d, want %d", src.Name(), i, j, tuple[j], want)
						}
					}
					seen++
					return true
				})
				if seen != n {
					t.Fatalf("streamed %d rows, want %d", seen, n)
				}
			}
		})
	}
}
