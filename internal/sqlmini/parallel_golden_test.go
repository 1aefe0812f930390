package sqlmini_test

import (
	"testing"

	"coherdb/internal/check"
	"coherdb/internal/constraint"
	"coherdb/internal/pool"
	"coherdb/internal/protocol"
	"coherdb/internal/sqlmini"
)

// TestParallelMatchesSerialControllers is the tentpole's golden
// equivalence gate on the real workload: over all eight generated
// controller tables, every query — full scans, filtered scans, grouping,
// the Fig. 3 readex-rows projection, and the complete ~50-invariant suite
// — must produce byte-identical results under morsel-parallel and serial
// execution, in both NULL dialects. A 4-worker pool with a 4-row morsel
// forces the parallel path even on a single-CPU machine.
func TestParallelMatchesSerialControllers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all controller tables")
	}
	db := sqlmini.NewDB()
	if _, err := protocol.GenerateAllOpts(db, constraint.Options{}); err != nil {
		t.Fatal(err)
	}

	var queries []string
	for _, tab := range []string{"D", "M", "C", "N", "R", "IO", "INT", "SY"} {
		queries = append(queries,
			`SELECT * FROM `+tab,
			`SELECT * FROM `+tab+` WHERE inmsg IS NOT NULL`,
			`SELECT inmsg, COUNT(*) AS n FROM `+tab+` GROUP BY inmsg`,
		)
	}
	// The Fig. 3 fragment: the readex transaction rows of D.
	queries = append(queries,
		`SELECT inmsg, dirst, dirpv, locmsg, remmsg, memmsg, nxtbdirst, nxtdirpv
		 FROM D WHERE inmsg = 'readex' AND bdirhit = 'miss'`)
	for _, inv := range check.ProtocolSuite().Invariants() {
		queries = append(queries, inv.SQL)
	}

	for _, strict := range []bool{false, true} {
		db.SetStrictNulls(strict)
		for _, q := range queries {
			db.SetPool(nil)
			db.SetWorkers(1)
			db.SetMorselSize(0)
			serial, err := db.Query(q)
			if err != nil {
				t.Fatalf("serial (strict=%v) %q: %v", strict, q, err)
			}
			db.SetPool(pool.New(4))
			db.SetWorkers(4)
			db.SetMorselSize(4)
			par, err := db.Query(q)
			if err != nil {
				t.Fatalf("parallel (strict=%v) %q: %v", strict, q, err)
			}
			if serial.String() != par.String() {
				t.Errorf("parallel result differs (strict=%v) for %q:\nserial:\n%s\nparallel:\n%s",
					strict, q, serial, par)
			}
		}
	}
	if db.Stats().Morsels == 0 {
		t.Fatal("no query took the parallel path: the golden comparison was vacuous")
	}
}
