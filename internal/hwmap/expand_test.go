package hwmap

import (
	"errors"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// ExpandDontcares is the ablation for the paper's §3 claim that "the NULL
// value allows a controller table entry to be specified only using the
// relevant values and helps in optimal mapping of tables to hardware": it
// rewrites a directory controller table without dontcares, enumerating
// every NULL input over the column's full domain. The result is the table
// a naive (TCAM-free) mapping would have to store; its row count blowup is
// the cost the dontcare representation avoids.
func ExpandDontcares(d *rel.Table) (*rel.Table, error) {
	if err := checkDirectorySchema(d); err != nil {
		return nil, err
	}
	domains := map[string][]rel.Value{
		"bdirst": domainOf(append([]string{protocol.DirI}, protocol.BusyStates()...)),
		"bdirpv": domainOf(protocol.PVEncodings()),
		"dirhit": domainOf([]string{"hit", "miss"}),
		"dirst":  domainOf(protocol.DirStates()),
		"dirpv":  domainOf(protocol.PVEncodings()),
	}
	out, err := rel.NewTable(d.Name()+"_expanded", d.Columns()...)
	if err != nil {
		return nil, err
	}
	cols := d.Columns()
	var expand func(row []rel.Value, from int) error
	expand = func(row []rel.Value, from int) error {
		for i := from; i < len(cols); i++ {
			dom, isInput := domains[cols[i]]
			if !isInput || !row[i].IsNull() {
				continue
			}
			for _, v := range dom {
				next := append([]rel.Value(nil), row...)
				next[i] = v
				if err := expand(next, i+1); err != nil {
					return err
				}
			}
			return nil
		}
		return out.InsertRow(append([]rel.Value(nil), row...))
	}
	for i := 0; i < d.NumRows(); i++ {
		if err := expand(rowOf(d, i), 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func domainOf(vals []string) []rel.Value {
	out := make([]rel.Value, len(vals))
	for i, v := range vals {
		out[i] = rel.S(v)
	}
	return out
}

func TestExpandDontcaresBlowup(t *testing.T) {
	// A5: the dontcare representation is dramatically smaller than the
	// fully enumerated table it stands for.
	d := directoryTable(t)
	exp, err := ExpandDontcares(d)
	if err != nil {
		t.Fatal(err)
	}
	if exp.NumRows() <= 2*d.NumRows() {
		t.Fatalf("expansion only grew %d -> %d rows; dontcares are not earning their keep",
			d.NumRows(), exp.NumRows())
	}
	// No NULL remains in the enumerated input columns.
	for i := 0; i < exp.NumRows(); i++ {
		for _, c := range []string{"bdirst", "bdirpv", "dirhit", "dirst", "dirpv"} {
			if exp.Get(i, c).IsNull() {
				t.Fatalf("row %d still has a dontcare in %s", i, c)
			}
		}
	}
	t.Logf("dontcare table: %d rows; enumerated: %d rows (%.1fx)",
		d.NumRows(), exp.NumRows(), float64(exp.NumRows())/float64(d.NumRows()))
}

func TestExpandDontcaresPreservesSemantics(t *testing.T) {
	// Every original row must be represented: some expanded row agrees
	// with it on all non-NULL inputs and on every output column.
	d := directoryTable(t)
	exp, err := ExpandDontcares(d)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{"inmsg", "inmsgsrc", "inmsgdest", "inmsgrsrc",
		"bdirhit", "bdirst", "bdirpv", "dirhit", "dirst", "dirpv"}
	for i := 0; i < d.NumRows(); i += 7 { // sample for speed
		orig := d.Row(i)
		found := false
		for j := 0; j < exp.NumRows() && !found; j++ {
			cand := exp.Row(j)
			match := true
			for _, c := range inputs {
				if v := orig.Get(c); !v.IsNull() && !cand.Get(c).Equal(v) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			same := true
			for _, c := range d.Columns() {
				if isOutputCol(c) && !cand.Get(c).Equal(orig.Get(c)) {
					same = false
					break
				}
			}
			found = same
		}
		if !found {
			t.Fatalf("row %d of D has no faithful expansion: %v", i, rowOf(d, i))
		}
	}
}

func TestExpandDontcaresRejectsWrongSchema(t *testing.T) {
	bad := rel.MustNewTable("x", "a")
	if _, err := ExpandDontcares(bad); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("err = %v", err)
	}
}

// BenchmarkExpandDontcares reports the A5 blowup: the rows a dontcare-free
// table needs per row of D.
func BenchmarkExpandDontcares(b *testing.B) {
	d := directoryTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := ExpandDontcares(d)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(exp.NumRows())/float64(d.NumRows()), "blowup")
	}
}
