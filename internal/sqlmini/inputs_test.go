package sqlmini

import (
	"reflect"
	"strings"
	"testing"

	"coherdb/internal/delta"
	"coherdb/internal/rel"
)

func TestQueryInputs(t *testing.T) {
	cases := []struct {
		sql  string
		want []delta.Input
	}{
		{
			"SELECT dirst, dirpv FROM D WHERE dirst = 'RU'",
			[]delta.Input{{Table: "D", Cols: []string{"dirpv", "dirst"}}},
		},
		{
			"SELECT * FROM D",
			[]delta.Input{{Table: "D"}},
		},
		{
			"SELECT COUNT(*) FROM M",
			[]delta.Input{{Table: "M"}},
		},
		{
			// Qualified columns resolve through aliases; unqualified ones in
			// a join are charged to both tables.
			"SELECT a.x FROM D a JOIN M b ON a.k = b.k WHERE y = 1",
			[]delta.Input{
				{Table: "D", Cols: []string{"k", "x", "y"}},
				{Table: "M", Cols: []string{"k", "y"}},
			},
		},
		{
			"SELECT st FROM D GROUP BY st HAVING COUNT(*) > 1 ORDER BY st",
			[]delta.Input{{Table: "D", Cols: []string{"st"}}},
		},
		{
			"SELECT st FROM D UNION SELECT st2 FROM M",
			[]delta.Input{
				{Table: "D", Cols: []string{"st"}},
				{Table: "M", Cols: []string{"st2"}},
			},
		},
		{
			"DELETE FROM D WHERE st = 'X'",
			[]delta.Input{{Table: "D", Cols: []string{"st"}}},
		},
		{
			"UPDATE D SET a = b WHERE c = 1",
			[]delta.Input{{Table: "D", Cols: []string{"b", "c"}}},
		},
		{
			"SELECT inmsg FROM C WHERE isrequest(inmsg) AND NOT (othercol IS NULL)",
			[]delta.Input{{Table: "C", Cols: []string{"inmsg", "othercol"}}},
		},
	}
	for _, c := range cases {
		got, err := QueryInputs(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.sql, got, c.want)
		}
	}
}

func TestRevisionCommit(t *testing.T) {
	db := NewDB()
	d := rel.MustNewTable("D", "st", "pv")
	d.MustInsert(rel.S("I"), rel.S("0"))
	d.MustInsert(rel.S("M"), rel.S("1"))
	db.PutTable(d)
	m := rel.MustNewTable("M", "k")
	m.MustInsert(rel.I(1))
	db.PutTable(m)

	rev := db.BeginRevision()
	if s := rev.Commit(); s.String() != "<empty>" {
		t.Fatalf("fresh revision not empty: %s", s)
	}

	if _, err := db.Exec("UPDATE D SET pv = '9' WHERE st = 'M'"); err != nil {
		t.Fatal(err)
	}
	s := rev.Commit()
	if !s.Touches("D", "pv") || s.Touches("D", "st") || s.Touches("M") {
		t.Fatalf("UPDATE delta wrong: %s", s)
	}

	// Commit re-baselined: the same edit scope keeps working.
	if _, err := db.Exec("INSERT INTO M (k) VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM D WHERE st = 'I'"); err != nil {
		t.Fatal(err)
	}
	s2 := rev.Commit()
	// M gained one row and D lost one: "M{k +1/-0} D{st,pv +0/-1}".
	if got := s2.String(); !strings.Contains(got, "M{k +1/-0}") || !strings.Contains(got, " +0/-1}") || s2.Rows() != 2 {
		t.Fatalf("INSERT/DELETE delta wrong: %s", got)
	}
	// Row-count changes must conservatively fire any column probe.
	if !s2.Touches("M", "nonexistent") {
		t.Fatal("cardinality change must touch every probe")
	}
	if s3 := rev.Commit(); s3.String() != "<empty>" {
		t.Fatalf("idle commit not empty: %s", s3)
	}
}

func TestRevisionSeesDirectTableMutation(t *testing.T) {
	db := NewDB()
	d := rel.MustNewTable("D", "a")
	d.MustInsert(rel.I(1))
	db.PutTable(d)
	rev := db.BeginRevision()
	if err := d.Set(0, "a", rel.I(2)); err != nil {
		t.Fatal(err)
	}
	if s := rev.Commit(); !s.Touches("D", "a") {
		t.Fatalf("direct mutation missed: %s", s)
	}
}
