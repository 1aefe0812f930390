package hwmap

import (
	"fmt"
	"strings"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Mapping is the result of mapping D onto hardware: the extended table and
// the nine implementation tables, all installed in the database.
type Mapping struct {
	Extended *rel.Table
	// Tables holds the nine implementation tables in
	// ImplementationTableNames order.
	Tables []*rel.Table
}

// Partition builds ED from d, installs it in db, and generates the nine
// implementation tables with CREATE TABLE ... AS SELECT DISTINCT statements
// (§5), one per request/response controller output.
func Partition(db *sqlmini.DB, d *rel.Table) (*Mapping, error) {
	ed, err := BuildExtended(d)
	if err != nil {
		return nil, err
	}
	protocol.RegisterFuncs(db.Register)
	db.PutTable(ed)
	m := &Mapping{Extended: ed}
	run := func(groups []outputGroup, class string) error {
		for _, g := range groups {
			// The §5 statement, e.g.:
			//   Create Table Request_remmsg as Select distinct
			//   <ED.Inputs>, remmsg... from ED Where isrequest(ED.inmsg)
			// (Dfdback is an implementation-defined request, so the
			// isrequest predicate routes it to the request controller.)
			cols := append(append([]string{}, edInputCols...), g.Cols...)
			stmt := fmt.Sprintf(
				"CREATE TABLE %s AS SELECT DISTINCT %s FROM ED WHERE %s(inmsg)",
				g.Name, strings.Join(cols, ", "), class)
			db.DropTable(g.Name)
			res, err := db.Exec(stmt)
			if err != nil {
				return fmt.Errorf("hwmap: generating %s: %w", g.Name, err)
			}
			m.Tables = append(m.Tables, res.Table)
		}
		return nil
	}
	if err := run(requestOutputGroups, "isrequest"); err != nil {
		return nil, err
	}
	if err := run(responseOutputGroups, "isresponse"); err != nil {
		return nil, err
	}
	return m, nil
}

// Reconstruct reassembles an extended table from the nine implementation
// tables by joining each controller's output tables on the input columns
// (§5: "each SQL table operation that modifies an extended table must
// specify the corresponding SQL table operations to reconstruct the
// original table"). The request and response halves are rebuilt
// independently and unioned.
func (m *Mapping) Reconstruct() (*rel.Table, error) {
	reqTables := m.Tables[:len(requestOutputGroups)]
	respTables := m.Tables[len(requestOutputGroups):]
	req, err := joinOnInputs(reqTables)
	if err != nil {
		return nil, err
	}
	resp, err := joinOnInputs(respTables)
	if err != nil {
		return nil, err
	}
	// Align the response half to the request half's schema: the response
	// controller has no remmsg output (never snoops); fill with NULLs.
	aligned, err := alignTo(resp, req.Columns())
	if err != nil {
		return nil, err
	}
	out, err := req.Union(aligned)
	if err != nil {
		return nil, err
	}
	return out.SetName("ED_reconstructed"), nil
}

// joinOnInputs joins the given implementation tables pairwise on the ED
// input columns, accumulating all output groups.
func joinOnInputs(tables []*rel.Table) (*rel.Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("hwmap: nothing to join")
	}
	acc := tables[0]
	for _, t := range tables[1:] {
		// Rename the right side's input columns to avoid collisions, join
		// on them, then project them away.
		ren := make(map[string]string, len(edInputCols))
		on := make([]rel.JoinOn, 0, len(edInputCols))
		for _, c := range edInputCols {
			ren[c] = "r_" + c
			on = append(on, rel.JoinOn{Left: c, Right: "r_" + c})
		}
		right, err := t.Rename(ren)
		if err != nil {
			return nil, err
		}
		// NULL join keys never match in SQL; the dontcare inputs of ED are
		// part of row identity here, so materialize them as sentinel
		// strings for the join and restore after.
		leftS := sentinelize(acc, edInputCols)
		rightS := sentinelize(right, rightNames(edInputCols))
		joined, err := leftS.EquiJoin(rightS, on)
		if err != nil {
			return nil, err
		}
		keep := []string{}
		for _, c := range joined.Columns() {
			if !strings.HasPrefix(c, "r_") {
				keep = append(keep, c)
			}
		}
		acc, err = joined.Project(keep...)
		if err != nil {
			return nil, err
		}
		acc = desentinelize(acc, edInputCols)
	}
	return acc, nil
}

func rightNames(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = "r_" + c
	}
	return out
}

// sentinel marks a NULL input materialized for joining.
const sentinel = "\x00null"

func sentinelize(t *rel.Table, cols []string) *rel.Table {
	out := t.Clone()
	for _, c := range cols {
		out.ReplaceInCol(c, rel.Null(), rel.S(sentinel))
	}
	return out
}

func desentinelize(t *rel.Table, cols []string) *rel.Table {
	for _, c := range cols {
		t.ReplaceInCol(c, rel.S(sentinel), rel.Null())
	}
	return t
}

// alignTo reorders/extends t's columns to match the target schema, filling
// absent columns with NULL.
func alignTo(t *rel.Table, target []string) (*rel.Table, error) {
	out, err := rel.NewTable(t.Name(), target...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(target))
	for k, c := range target {
		idx[k] = t.ColIndex(c)
	}
	for i := 0; i < t.NumRows(); i++ {
		row := make([]rel.Value, len(target))
		for k, j := range idx {
			if j >= 0 {
				row[k] = t.At(i, j)
			}
		}
		if err := out.InsertRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Verify checks that the reconstruction contains the original extended
// table (§5: "it was explicitly checked that D could be reconstructed from
// these nine implementation tables"). It returns the reconstructed table on
// success.
func (m *Mapping) Verify() (*rel.Table, error) {
	rec, err := m.Reconstruct()
	if err != nil {
		return nil, err
	}
	proj, err := m.Extended.Project(rec.Columns()...)
	if err != nil {
		return nil, err
	}
	ok, err := rec.ContainsAll(proj.SetName(rec.Name()).Distinct())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrBroken
	}
	return rec, nil
}
