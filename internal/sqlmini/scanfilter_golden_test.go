package sqlmini_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"coherdb/internal/check"
	"coherdb/internal/constraint"
	"coherdb/internal/pool"
	"coherdb/internal/protocol"
	"coherdb/internal/sqlmini"
)

// scanFilterQuery is one query of the frozen scan-filter set, keyed by a
// stable label.
type scanFilterQuery struct {
	label, sql string
}

// scanFilterQueries is the query set the frozen digests cover: four
// queries on each of the eight controller tables, the Fig. 3 fragment,
// every ProtocolSuite invariant, pushed conjuncts over two or more of D's
// columns, and queries whose row order joins, residues, grouping,
// DISTINCT, ORDER BY and UNION decide.
func scanFilterQueries() []scanFilterQuery {
	var qs []scanFilterQuery
	for _, tab := range []string{"D", "M", "C", "N", "R", "IO", "INT", "SY"} {
		qs = append(qs,
			scanFilterQuery{tab + "/all", `SELECT * FROM ` + tab},
			scanFilterQuery{tab + "/notnull", `SELECT * FROM ` + tab + ` WHERE inmsg IS NOT NULL`},
			scanFilterQuery{tab + "/notreadex", `SELECT * FROM ` + tab + ` WHERE inmsg <> 'readex' AND inmsg IS NOT NULL`},
			scanFilterQuery{tab + "/group", `SELECT inmsg, COUNT(*) AS n FROM ` + tab + ` GROUP BY inmsg`},
		)
	}
	// The Fig. 3 fragment: the readex transaction rows of D.
	qs = append(qs, scanFilterQuery{"fig3",
		`SELECT inmsg, dirst, dirpv, locmsg, remmsg, memmsg, nxtbdirst, nxtdirpv
		 FROM D WHERE inmsg = 'readex' AND bdirhit = 'miss'`})
	for _, inv := range check.ProtocolSuite().Invariants() {
		qs = append(qs, scanFilterQuery{"inv/" + inv.Name, inv.SQL})
	}
	// Conjuncts that read several columns: ordered compares, BETWEEN,
	// CASE and a call, alone and beside single-column kernels, on a whole
	// scan and behind an index lookup.
	qs = append(qs,
		scanFilterQuery{"multi/lt", `SELECT * FROM D WHERE inmsg < remmsg`},
		scanFilterQuery{"multi/gt", `SELECT * FROM D WHERE inmsg > locmsg`},
		scanFilterQuery{"multi/between", `SELECT * FROM D WHERE inmsg BETWEEN memmsg AND remmsg`},
		scanFilterQuery{"multi/call", `SELECT * FROM D WHERE coalesce2(locmsg, remmsg) <> 'none'`},
		scanFilterQuery{"multi/or-index", `SELECT * FROM D WHERE inmsg = 'readex' AND (inmsg < remmsg OR memmsg IS NULL)`},
		scanFilterQuery{"multi/not", `SELECT * FROM D WHERE NOT (inmsg >= locmsg) AND bdirst IS NOT NULL`},
		scanFilterQuery{"multi/case", `SELECT * FROM D WHERE CASE WHEN dirst = bdirst THEN locmsg ELSE remmsg END IS NOT NULL`},
		scanFilterQuery{"multi/group", `SELECT inmsg, COUNT(*) AS n FROM D WHERE inmsg > locmsg GROUP BY inmsg`},
	)
	// Row order beyond a single scan. The joins cover each strategy the
	// executor has had: a persistent index on the right (R JOIN N) or on
	// the left (N JOIN R) source, an ad-hoc hash over the smaller (R's
	// filtered rows) or the larger input, and nested loops; NULL join keys
	// match only in the constraint dialect. Then a FROM list with residues
	// that read several sources, grouping with HAVING and MIN/MAX,
	// DISTINCT, computed select items and ORDER BY keys, UNION chains
	// sorted and limited as a whole, and a SELECT without FROM.
	qs = append(qs,
		scanFilterQuery{"join/index-right", `SELECT r.inmsg, r.racst, n.mshrst, n.netmsg, n.nxtmshrst FROM R r JOIN N n ON r.inmsg = n.inmsg`},
		scanFilterQuery{"join/index-left", `SELECT n.inmsg, n.mshrst, r.racst, r.nxtracst FROM N n JOIN R r ON n.inmsg = r.inmsg`},
		scanFilterQuery{"join/hash-small-left", `SELECT r.inmsg, r.racst, n.mshrst, n.cresp FROM R r JOIN N n ON r.inmsg = n.inmsg AND r.netmsg = n.netmsg WHERE r.racst IS NOT NULL AND n.mshrst IS NOT NULL`},
		scanFilterQuery{"join/hash-small-right", `SELECT n.inmsg, n.mshrst, r.racst, r.locresp FROM N n JOIN R r ON n.netmsg = r.netmsg WHERE n.inmsg IS NOT NULL AND r.inmsg IS NOT NULL`},
		scanFilterQuery{"join/loop-call", `SELECT m.inmsg, m.bankst, s.inmsg, s.syncst FROM M m JOIN SY s ON coalesce2(m.dirmsg, m.inmsg) <> s.cpuresp OR s.cpuresp IS NULL`},
		scanFilterQuery{"join/loop-range", `SELECT c.inmsg, c.cachest, i.inmsg, i.nxtiost FROM C c JOIN IO i ON c.busmsg = i.netmsg OR c.prresp < i.devresp`},
		scanFilterQuery{"join/chain", `SELECT r.inmsg, n.mshrst, i.iost FROM R r JOIN N n ON r.inmsg = n.inmsg JOIN IO i ON n.netmsg = i.netmsg`},
		scanFilterQuery{"cross/residue", `SELECT m.inmsg, m.bankst, i.inmsg, i.iost FROM M m, IO i WHERE m.dirmsg = i.devresp OR m.inmsg < i.inmsg`},
		scanFilterQuery{"cross/pushed-residue", `SELECT m.inmsg, i.iost, s.syncst FROM M m, IO i, SY s WHERE m.bankst = 'ready' AND m.dirmsg <> i.devresp AND s.cpuresp IS NULL`},
		scanFilterQuery{"group/having-minmax", `SELECT inmsg, MIN(dirst) AS lo, MAX(remmsg) AS hi, COUNT(*) AS n FROM D GROUP BY inmsg HAVING MAX(remmsg) IS NOT NULL AND COUNT(*) > 5`},
		scanFilterQuery{"group/having-or", `SELECT dirst, bdirst, MIN(locmsg), MAX(memmsg) FROM D WHERE inmsg <> 'read' GROUP BY dirst, bdirst HAVING MIN(locmsg) < 'm' OR MAX(memmsg) IS NULL`},
		scanFilterQuery{"group/computed-key", `SELECT coalesce2(locmsg, remmsg) AS k, COUNT(*) AS n, MAX(typename(dirpv)) AS t FROM D GROUP BY coalesce2(locmsg, remmsg) ORDER BY n DESC, k`},
		scanFilterQuery{"group/empty", `SELECT COUNT(*), MIN(inmsg), MAX(inmsg) FROM D WHERE dirst = 'nosuch'`},
		scanFilterQuery{"distinct", `SELECT DISTINCT dirst, bdirst, locmsg FROM D`},
		scanFilterQuery{"computed/order", `SELECT inmsg, coalesce2(remmsg, memmsg) AS out, typename(dirpv) AS t FROM D WHERE bdirhit = 'miss' ORDER BY out DESC, dirst, coalesce2(locmsg, 'zz'), inmsg`},
		scanFilterQuery{"union/order-limit", `SELECT inmsg, cachest AS st FROM C UNION SELECT inmsg, mshrst FROM N ORDER BY st DESC, inmsg LIMIT 20`},
		scanFilterQuery{"union/all-limit", `SELECT inmsg FROM M UNION ALL SELECT inmsg FROM IO UNION SELECT inmsg FROM SY ORDER BY inmsg LIMIT 7`},
		scanFilterQuery{"fromless", `SELECT 1 AS one, 'x' AS ex`},
	)
	return qs
}

// resultDigest is the first 16 hex digits of the sha256 of a result's
// rendering.
func resultDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

// frozenScanFilters holds each query's result digest per dialect:
// [0] under the constraint dialect (NULL = NULL is true), [1] under
// strict ANSI NULLs; the comments give the row counts. The scan, invariant
// and multi-column digests were recorded while the executor still had a
// row-at-a-time scan filter beside the selection-vector one, after
// checking that the two agreed on every query, serially and in parallel.
// The digests from join/index-right on were recorded, serially and in
// parallel, while SELECT still ran over row-major frames, with five join
// strategies and row-at-a-time residues, ON and HAVING.
var frozenScanFilters = map[string][2]string{
	"D/all":                           {"cea6cacd4e43f8d0", "cea6cacd4e43f8d0"}, // rows 483 / 483
	"D/notnull":                       {"cea6cacd4e43f8d0", "cea6cacd4e43f8d0"}, // rows 483 / 483
	"D/notreadex":                     {"0149fcbb7c65638d", "0149fcbb7c65638d"}, // rows 443 / 443
	"D/group":                         {"7c726d402716a963", "7c726d402716a963"}, // rows 24 / 24
	"M/all":                           {"ff16e7e627ae053d", "ff16e7e627ae053d"}, // rows 10 / 10
	"M/notnull":                       {"ff16e7e627ae053d", "ff16e7e627ae053d"}, // rows 10 / 10
	"M/notreadex":                     {"ff16e7e627ae053d", "ff16e7e627ae053d"}, // rows 10 / 10
	"M/group":                         {"fd044442372d930e", "fd044442372d930e"}, // rows 5 / 5
	"C/all":                           {"debeab8899b8e09b", "debeab8899b8e09b"}, // rows 67 / 67
	"C/notnull":                       {"debeab8899b8e09b", "debeab8899b8e09b"}, // rows 67 / 67
	"C/notreadex":                     {"debeab8899b8e09b", "debeab8899b8e09b"}, // rows 67 / 67
	"C/group":                         {"ebeef99578eb1312", "ebeef99578eb1312"}, // rows 13 / 13
	"N/all":                           {"1f5d048380a39256", "1f5d048380a39256"}, // rows 48 / 48
	"N/notnull":                       {"1f5d048380a39256", "1f5d048380a39256"}, // rows 48 / 48
	"N/notreadex":                     {"c524fb79ed0adf2f", "c524fb79ed0adf2f"}, // rows 46 / 46
	"N/group":                         {"c8b0b7a1a6f95c57", "c8b0b7a1a6f95c57"}, // rows 32 / 32
	"R/all":                           {"016bfe0c80199645", "016bfe0c80199645"}, // rows 29 / 29
	"R/notnull":                       {"016bfe0c80199645", "016bfe0c80199645"}, // rows 29 / 29
	"R/notreadex":                     {"76507248530213ac", "76507248530213ac"}, // rows 23 / 23
	"R/group":                         {"bd64489dc4677f0a", "bd64489dc4677f0a"}, // rows 10 / 10
	"IO/all":                          {"da8808635161faed", "da8808635161faed"}, // rows 11 / 11
	"IO/notnull":                      {"da8808635161faed", "da8808635161faed"}, // rows 11 / 11
	"IO/notreadex":                    {"da8808635161faed", "da8808635161faed"}, // rows 11 / 11
	"IO/group":                        {"6ce552c2ebfbeac1", "6ce552c2ebfbeac1"}, // rows 5 / 5
	"INT/all":                         {"c641aad5a18ad05f", "c641aad5a18ad05f"}, // rows 4 / 4
	"INT/notnull":                     {"c641aad5a18ad05f", "c641aad5a18ad05f"}, // rows 4 / 4
	"INT/notreadex":                   {"c641aad5a18ad05f", "c641aad5a18ad05f"}, // rows 4 / 4
	"INT/group":                       {"088f1c5b0e928dd9", "088f1c5b0e928dd9"}, // rows 2 / 2
	"SY/all":                          {"2e400dfa154041e5", "2e400dfa154041e5"}, // rows 3 / 3
	"SY/notnull":                      {"2e400dfa154041e5", "2e400dfa154041e5"}, // rows 3 / 3
	"SY/notreadex":                    {"2e400dfa154041e5", "2e400dfa154041e5"}, // rows 3 / 3
	"SY/group":                        {"17ff853b59f0c230", "17ff853b59f0c230"}, // rows 2 / 2
	"fig3":                            {"8f037f7969bb3e0d", "8f037f7969bb3e0d"}, // rows 3 / 3
	"inv/dir-pv-consistent":           {"49e5be4f0a7bad84", "49e5be4f0a7bad84"}, // rows 0 / 0
	"inv/dir-bdir-exclusive":          {"354692fbfbc1e770", "b95a8c4393e9c4ee"}, // rows 449 / 0
	"inv/busy-request-retried":        {"168c3d61c100a1bc", "168c3d61c100a1bc"}, // rows 0 / 0
	"inv/dealloc-only-on-compl":       {"f7e03079e639ab86", "f7e03079e639ab86"}, // rows 0 / 0
	"inv/retry-only-when-busy":        {"7a71321f1e5c9e93", "7a71321f1e5c9e93"}, // rows 0 / 0
	"inv/request-on-reqq":             {"34b1da1a9ccf17c4", "34b1da1a9ccf17c4"}, // rows 0 / 0
	"inv/response-on-respq":           {"34b1da1a9ccf17c4", "34b1da1a9ccf17c4"}, // rows 0 / 0
	"inv/response-needs-busy":         {"7a71321f1e5c9e93", "7a71321f1e5c9e93"}, // rows 0 / 0
	"inv/alloc-from-free":             {"d6be682c07489fa2", "d6be682c07489fa2"}, // rows 0 / 0
	"inv/dealloc-from-busy":           {"d6be682c07489fa2", "d6be682c07489fa2"}, // rows 0 / 0
	"inv/alloc-targets-busy":          {"89903794d227b7e2", "89903794d227b7e2"}, // rows 0 / 0
	"inv/dealloc-targets-free":        {"89903794d227b7e2", "89903794d227b7e2"}, // rows 0 / 0
	"inv/bdirupd-consistent":          {"844bdd019670c514", "844bdd019670c514"}, // rows 0 / 0
	"inv/dirupd-consistent":           {"41cacfe159f7cfbe", "41cacfe159f7cfbe"}, // rows 0 / 0
	"inv/dec-only-on-idone":           {"a422e1dea416bddf", "a422e1dea416bddf"}, // rows 0 / 0
	"inv/idone-gone-keeps-waiting":    {"a50d08e9e4a1c2d8", "a50d08e9e4a1c2d8"}, // rows 0 / 0
	"inv/locmsg-is-response":          {"8f5d52f6b10957a1", "8f5d52f6b10957a1"}, // rows 0 / 0
	"inv/remmsg-is-request":           {"61ea86c12e20813e", "61ea86c12e20813e"}, // rows 0 / 0
	"inv/memmsg-is-request":           {"2d9ccba8563b726f", "2d9ccba8563b726f"}, // rows 0 / 0
	"inv/locmsg-triple-consistent":    {"20887a70cd1c7e29", "20887a70cd1c7e29"}, // rows 0 / 0
	"inv/remmsg-triple-consistent":    {"bc798e626357fd73", "bc798e626357fd73"}, // rows 0 / 0
	"inv/memmsg-triple-consistent":    {"babab5776710d2b5", "babab5776710d2b5"}, // rows 0 / 0
	"inv/datax-only-readex":           {"5075af49e41874fb", "5075af49e41874fb"}, // rows 0 / 0
	"inv/datax-transfers-ownership":   {"d63cc17efb55e437", "d63cc17efb55e437"}, // rows 0 / 0
	"inv/upgack-transfers-ownership":  {"d63cc17efb55e437", "d63cc17efb55e437"}, // rows 0 / 0
	"inv/busy-family-rd":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-rx":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-ri":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-ug":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-wb":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-pw":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-fl":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-pf":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-ior":             {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-iow":             {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-ucr":             {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-ucw":             {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-at":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-sy":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/busy-family-in":              {"16922f654108f69f", "16922f654108f69f"}, // rows 0 / 0
	"inv/deterministic-D":             {"10a28a54e0fbdee4", "10a28a54e0fbdee4"}, // rows 0 / 0
	"inv/deterministic-M":             {"2b9d6fac1395d751", "2b9d6fac1395d751"}, // rows 0 / 0
	"inv/deterministic-C":             {"cb95d767346e81a0", "cb95d767346e81a0"}, // rows 0 / 0
	"inv/deterministic-N":             {"c2b08afb5696051b", "c2b08afb5696051b"}, // rows 0 / 0
	"inv/locmsg-toward-local":         {"e27f93f75ddced34", "e27f93f75ddced34"}, // rows 0 / 0
	"inv/remmsg-toward-remote":        {"3a78afc477fa0bc1", "3a78afc477fa0bc1"}, // rows 0 / 0
	"inv/memmsg-stays-home":           {"9d32c2049ba07ad0", "9d32c2049ba07ad0"}, // rows 0 / 0
	"inv/mem-always-answers":          {"62361666b1bb56a2", "62361666b1bb56a2"}, // rows 0 / 0
	"inv/mem-read-returns-data":       {"360d2e1a0882ca9d", "360d2e1a0882ca9d"}, // rows 0 / 0
	"inv/mem-wb-returns-compl":        {"360d2e1a0882ca9d", "360d2e1a0882ca9d"}, // rows 0 / 0
	"inv/cache-snoop-answered":        {"e2e80f3becda6b86", "e2e80f3becda6b86"}, // rows 0 / 0
	"inv/cache-sinv-invalidates":      {"b3c3793dbb35f8eb", "b3c3793dbb35f8eb"}, // rows 0 / 0
	"inv/cache-dirty-data-never-lost": {"8e358c4319c97168", "8e358c4319c97168"}, // rows 0 / 0
	"inv/cache-no-silent-m-drop":      {"c0096f2236f43003", "c0096f2236f43003"}, // rows 0 / 0
	"inv/node-completion-closes":      {"c3409ddcaf59862a", "c3409ddcaf59862a"}, // rows 0 / 0
	"inv/node-no-double-issue":        {"c3409ddcaf59862a", "c3409ddcaf59862a"}, // rows 0 / 0
	"inv/rac-snoop-answered":          {"024b2e21c159f1c5", "024b2e21c159f1c5"}, // rows 0 / 0
	"inv/rac-dirty-data-never-lost":   {"70eed897e13df774", "70eed897e13df774"}, // rows 0 / 0
	"inv/io-request-answered":         {"00fbdb5b891850ca", "00fbdb5b891850ca"}, // rows 0 / 0
	"inv/int-request-answered":        {"4230d2333db1f695", "4230d2333db1f695"}, // rows 0 / 0
	"inv/sync-request-answered":       {"c526bf311342351b", "c526bf311342351b"}, // rows 0 / 0
	"multi/lt":                        {"27c0ffd9c0bf427d", "27c0ffd9c0bf427d"}, // rows 7 / 7
	"multi/gt":                        {"2e2d2c15248c5e07", "2e2d2c15248c5e07"}, // rows 125 / 125
	"multi/between":                   {"906164ac1217bfa8", "906164ac1217bfa8"}, // rows 2 / 2
	"multi/call":                      {"cea6cacd4e43f8d0", "7c7d5e48b18685ea"}, // rows 483 / 438
	"multi/or-index":                  {"a354c11a9f7f9fe1", "a354c11a9f7f9fe1"}, // rows 39 / 39
	"multi/not":                       {"c9e3cbe6e453a2e3", "0243a78e6381dbd0"}, // rows 356 / 302
	"multi/case":                      {"0c2eec644a40ff04", "40a162952e4db123"}, // rows 16 / 14
	"multi/group":                     {"adb34a07887cefab", "adb34a07887cefab"}, // rows 14 / 14
	"join/index-right":                {"d75f255021b40e1b", "d75f255021b40e1b"}, // rows 38 / 38
	"join/index-left":                 {"6ee80ac09a9b4f54", "6ee80ac09a9b4f54"}, // rows 38 / 38
	"join/hash-small-left":            {"c0f35124890e86d5", "2e7b77153df22e20"}, // rows 19 / 4
	"join/hash-small-right":           {"2745babb17837c82", "681998620baae5a5"}, // rows 479 / 4
	"join/loop-call":                  {"57c447ac58297d8c", "57c447ac58297d8c"}, // rows 25 / 25
	"join/loop-range":                 {"a0195b6eb956a17c", "1e25845ce59a1812"}, // rows 348 / 124
	"join/chain":                      {"6b5e179a67babdb1", "5ca1544e869e4b78"}, // rows 114 / 0
	"cross/residue":                   {"c0d01fcd4ab28b0d", "c0d01fcd4ab28b0d"}, // rows 20 / 20
	"cross/pushed-residue":            {"23df5beed3ad6836", "356bd6555d72e57a"}, // rows 55 / 30
	"group/having-minmax":             {"f18ac3c74f9918fa", "f18ac3c74f9918fa"}, // rows 5 / 5
	"group/having-or":                 {"c7a3dedeca5258fd", "c7a3dedeca5258fd"}, // rows 41 / 41
	"group/computed-key":              {"85956ea1481c27d0", "85956ea1481c27d0"}, // rows 21 / 21
	"group/empty":                     {"4b09312f9127158a", "4b09312f9127158a"}, // rows 1 / 1
	"distinct":                        {"1b52743f15a6ee5f", "1b52743f15a6ee5f"}, // rows 95 / 95
	"computed/order":                  {"cd84817947b7fef9", "cd84817947b7fef9"}, // rows 34 / 34
	"union/order-limit":               {"880467fca873b123", "880467fca873b123"}, // rows 20 / 20
	"union/all-limit":                 {"138c2e360b57adbf", "138c2e360b57adbf"}, // rows 7 / 7
	"fromless":                        {"f31a8f9079d92664", "f31a8f9079d92664"}, // rows 1 / 1
}

// TestScanFiltersMatchFrozenResults is the scan filters' golden gate on
// the real workload: over all eight generated controller tables, every
// query in scanFilterQueries must reproduce its frozen result digest in
// both NULL dialects, serially and under a forced-parallel 4-row morsel
// split.
func TestScanFiltersMatchFrozenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all controller tables")
	}
	db := sqlmini.NewDB()
	if _, err := protocol.GenerateAllOpts(db, constraint.Options{}); err != nil {
		t.Fatal(err)
	}
	queries := scanFilterQueries()
	if len(frozenScanFilters) != len(queries) {
		t.Fatalf("%d frozen digests for %d queries", len(frozenScanFilters), len(queries))
	}
	for _, parallel := range []bool{false, true} {
		if parallel {
			db.SetPool(pool.New(4))
			db.SetWorkers(4)
			db.SetMorselSize(4)
		} else {
			db.SetPool(nil)
			db.SetWorkers(1)
			db.SetMorselSize(0)
		}
		for d, strict := range []bool{false, true} {
			db.SetStrictNulls(strict)
			for _, q := range queries {
				want, ok := frozenScanFilters[q.label]
				if !ok {
					t.Fatalf("no frozen digest for %s", q.label)
				}
				res, err := db.Query(q.sql)
				if err != nil {
					t.Fatalf("%s (strict=%v, parallel=%v): %v", q.label, strict, parallel, err)
				}
				if got := resultDigest(res.String()); got != want[d] {
					t.Errorf("%s (strict=%v, parallel=%v): digest %s, frozen %s\n%s",
						q.label, strict, parallel, got, want[d], q.sql)
				}
			}
		}
	}
	if db.Stats().VecBatches == 0 {
		t.Fatal("no query took the vectorized path: the golden comparison was vacuous")
	}
}
