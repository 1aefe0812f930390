package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func benchTable(rows int) *Table {
	rng := rand.New(rand.NewSource(7))
	t := MustNewTable("b", "a", "b", "c", "d")
	vals := []Value{S("x"), S("y"), S("z"), I(1), I(2), Null()}
	for i := 0; i < rows; i++ {
		t.MustInsert(
			vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
			vals[rng.Intn(len(vals))], I(int64(i%64)),
		)
	}
	return t
}

func BenchmarkSelect(b *testing.B) {
	t := benchTable(10000)
	want := S("x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Select(func(r Row) bool { return r.Get("a").Equal(want) })
	}
}

func BenchmarkDistinct(b *testing.B) {
	t := benchTable(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Distinct()
	}
}

func BenchmarkEquiJoin(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		left := benchTable(n)
		right := MustNewTable("r", "k", "v")
		for i := 0; i < 64; i++ {
			right.MustInsert(I(int64(i)), S(fmt.Sprintf("v%d", i)))
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := left.EquiJoin(right, []JoinOn{{Left: "d", Right: "k"}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	t := benchTable(10000)
	ix, err := BuildIndex(t, "d")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(I(int64(i % 64)))
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	t := benchTable(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := t.WriteCSV(&sb); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadCSV("b", strings.NewReader(sb.String())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffByKey(b *testing.B) {
	old := benchTable(5000)
	new := old.Clone()
	for i := 0; i < new.NumRows(); i += 100 {
		_ = new.Set(i, "a", S("changed"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DiffByKey(old, new, []string{"d", "b", "c"}); err != nil {
			b.Fatal(err)
		}
	}
}
