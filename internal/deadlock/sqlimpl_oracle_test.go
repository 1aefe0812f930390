package deadlock

import (
	"fmt"
	"sort"
	"strings"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// This file is the literal-SQL implementation of §4.1, mirroring how the
// paper ran the analysis inside the relational database system: the
// controller tables and V live in a database; the individual controller
// dependency tables are CREATE TABLE ... AS SELECT joins against V; the
// quad placements are SELECT projections substituting role names; the
// pairwise composition is a self-join on the channel-assignment columns;
// and the VCG is the projection of the final dependency table onto
// (vc1, vc2). AnalyzeSQL produces the same graph as Analyze (the Go
// implementation), which the tests cross-check.

// AnalyzeSQL runs the §4.1 method with SQL statements over db-installed
// copies of the controller tables and assignment. Only the default
// (relaxed, all placements, no closure) configuration is supported — the
// paper's final method.
func AnalyzeSQL(controllers []*rel.Table, v *rel.Table, db *sqlmini.DB) (*Report, error) {
	if db == nil {
		db = sqlmini.NewDB()
	}
	if _, err := NewAssignment(v); err != nil {
		return nil, err
	}
	// PutTable replaces in place; same-schema replacement keeps the DB's
	// cached query plans valid across repeated analyses.
	db.PutTable(v.Clone().SetName("V"))

	// 1. Individual controller dependency tables, one SELECT per output
	// message group, unioned (§4.1: "One entry is added for each outgoing
	// message").
	var depTables []string
	for _, t := range controllers {
		in, outs, err := msgGroups(t)
		if err != nil {
			return nil, err
		}
		cols := t.ColumnsRef()
		db.PutTable(t)
		name := t.Name() + "_deps"
		var branches []string
		for _, g := range outs {
			branches = append(branches, fmt.Sprintf(
				`SELECT t.%[2]s AS m1, t.%[2]ssrc AS s1, t.%[2]sdest AS d1, vin.v AS vc1,
				        t.%[3]s AS m2, t.%[3]ssrc AS s2, t.%[3]sdest AS d2, vout.v AS vc2
				 FROM %[1]s t
				 JOIN V vin  ON t.%[2]s = vin.m  AND t.%[2]ssrc = vin.s  AND t.%[2]sdest = vin.d
				 JOIN V vout ON t.%[3]s = vout.m AND t.%[3]ssrc = vout.s AND t.%[3]sdest = vout.d`,
				t.Name(), cols[in.m], cols[g.m]))
		}
		stmt := "CREATE TABLE " + name + " AS " + strings.Join(branches, " UNION ")
		db.DropTable(name)
		if _, err := db.Exec(stmt); err != nil {
			return nil, fmt.Errorf("deadlock: SQL deps for %s: %w", t.Name(), err)
		}
		depTables = append(depTables, name)
	}

	// 2. The five quad-placement sets, as CASE-projection SELECTs over the
	// union of the individual tables.
	var union []string
	for _, n := range depTables {
		union = append(union, "SELECT m1, s1, d1, vc1, m2, s2, d2, vc2 FROM "+n)
	}
	db.DropTable("alldeps")
	if _, err := db.Exec("CREATE TABLE alldeps AS " + strings.Join(union, " UNION ")); err != nil {
		return nil, err
	}
	var placed []string
	for i, p := range Placements() {
		name := fmt.Sprintf("deps_p%d", i)
		stmt := placementStmt(name, p)
		db.DropTable(name)
		if _, err := db.Exec(stmt); err != nil {
			return nil, fmt.Errorf("deadlock: SQL placement %s: %w", p.Name, err)
		}
		placed = append(placed, name)
	}

	// 3. Pairwise composition within each placement set: a self-join on
	// the (source, destination, channel) of the output/input assignments —
	// the message-agnostic relaxation of §4.1.
	var protoBranches []string
	for _, name := range placed {
		protoBranches = append(protoBranches,
			"SELECT m1, s1, d1, vc1, m2, s2, d2, vc2 FROM "+name)
		comp := name + "_pairs"
		stmt := fmt.Sprintf(
			`CREATE TABLE %[1]s AS SELECT DISTINCT
				a.m1 AS m1, a.s1 AS s1, a.d1 AS d1, a.vc1 AS vc1,
				b.m2 AS m2, b.s2 AS s2, b.d2 AS d2, b.vc2 AS vc2
			 FROM %[2]s a JOIN %[2]s b
			 ON a.s2 = b.s1 AND a.d2 = b.d1 AND a.vc2 = b.vc1`, comp, name)
		db.DropTable(comp)
		if _, err := db.Exec(stmt); err != nil {
			return nil, fmt.Errorf("deadlock: SQL composition for %s: %w", name, err)
		}
		protoBranches = append(protoBranches,
			"SELECT m1, s1, d1, vc1, m2, s2, d2, vc2 FROM "+comp)
	}
	db.DropTable("protocol_deps")
	if _, err := db.Exec("CREATE TABLE protocol_deps AS " + strings.Join(protoBranches, " UNION ")); err != nil {
		return nil, err
	}

	// 4. VCG = the (vc1, vc2) projection; cycles via the Go graph code
	// (Oracle's CONNECT BY equivalent is out of dialect scope).
	proto := db.MustTable("protocol_deps")
	rows := make([]DepRow, 0, proto.NumRows())
	for i := 0; i < proto.NumRows(); i++ {
		rows = append(rows, DepRow{
			In: VAssign{
				M: proto.Get(i, "m1").Str(), S: proto.Get(i, "s1").Str(),
				D: proto.Get(i, "d1").Str(), VC: proto.Get(i, "vc1").Str(),
			},
			Out: VAssign{
				M: proto.Get(i, "m2").Str(), S: proto.Get(i, "s2").Str(),
				D: proto.Get(i, "d2").Str(), VC: proto.Get(i, "vc2").Str(),
			},
			Origin: "sql",
		})
	}
	g := NewVCG(rows)
	return &Report{
		Graph:    g,
		Cycles:   g.Cycles(),
		Protocol: rows,
		Stats:    Stats{ProtocolRows: len(rows), Rounds: 1},
	}, nil
}

// placementStmt is the CREATE TABLE ... AS SELECT that applies placement p
// to alldeps as CASE projections over the role columns. Substitutions are
// emitted in sorted order so the statement text — and with it the DB's plan
// cache key — is the same on every call.
func placementStmt(name string, p Placement) string {
	from := make([]string, 0, len(p.Subst))
	for f := range p.Subst {
		from = append(from, f)
	}
	sort.Strings(from)
	subst := func(col string) string {
		if len(from) == 0 {
			return col
		}
		expr := "CASE "
		for _, f := range from {
			expr += fmt.Sprintf("WHEN %s = '%s' THEN '%s' ", col, f, p.Subst[f])
		}
		return expr + "ELSE " + col + " END AS " + col
	}
	return fmt.Sprintf(
		"CREATE TABLE %s AS SELECT DISTINCT m1, %s, %s, vc1, m2, %s, %s, vc2 FROM alldeps",
		name, subst("s1"), subst("d1"), subst("s2"), subst("d2"))
}
