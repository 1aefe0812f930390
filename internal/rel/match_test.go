package rel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// keyOf encodes a binding the way callers do: a value never interned
// becomes NoCode.
func keyOf(vals ...Value) []uint32 {
	key := make([]uint32, len(vals))
	for i, v := range vals {
		c, ok := shared.LookupCode(v)
		if !ok {
			c = NoCode
		}
		key[i] = c
	}
	return key
}

// scanMatch is the matcher's semantic spec, by full scan: the most
// specific row whose every non-NULL input cell equals the binding, ties
// going to the lowest row index. A NULL cell is a dontcare in every
// column, the first included.
func scanMatch(t *Table, in []int, binding []Value) int {
	best, bestScore := -1, -1
	for r := 0; r < t.NumRows(); r++ {
		score := 0
		ok := true
		for k, j := range in {
			cell := t.At(r, j)
			if cell.IsNull() {
				continue
			}
			if !cell.Equal(binding[k]) {
				ok = false
				break
			}
			score++
		}
		if ok && score > bestScore {
			best, bestScore = r, score
		}
	}
	return best
}

func TestMatcherMostSpecificMatch(t *testing.T) {
	tab := MustNewTable("T", "inmsg", "st", "out")
	tab.MustInsert(S("req"), Null(), S("generic"))
	tab.MustInsert(S("req"), S("busy"), S("specific"))
	m, err := NewMatcher(tab, []string{"inmsg", "st"})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Match(keyOf(S("req"), S("busy")))
	if r < 0 || !tab.Row(r).Get("out").Equal(S("specific")) {
		t.Fatal("most specific row not preferred")
	}
	r = m.Match(keyOf(S("req"), S("other")))
	if r < 0 || !tab.Row(r).Get("out").Equal(S("generic")) {
		t.Fatal("dontcare row not used as fallback")
	}
	if r := m.Match(keyOf(S("nosuch"), Null())); r >= 0 {
		t.Fatal("phantom match")
	}
}

// TestMatcherNullFirstCellAndEmptyString pins how the first input column
// is bucketed: by code, so a NULL first cell is a dontcare like a NULL in
// any other column, and S("") and NULL are distinct binding values.
func TestMatcherNullFirstCellAndEmptyString(t *testing.T) {
	tab := MustNewTable("T", "inmsg", "st", "out")
	tab.MustInsert(Null(), S("x"), S("wild"))
	tab.MustInsert(S("req"), Null(), S("req-any"))
	tab.MustInsert(S(""), S("x"), S("empty"))
	m, err := NewMatcher(tab, []string{"inmsg", "st"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		inmsg, st Value
		want      string // "" for no match
	}{
		// A NULL first cell matches any first value, interned or not.
		{S("other"), S("x"), "wild"},
		{I(7), S("x"), "wild"},
		{S("match-test-never-interned"), S("x"), "wild"},
		// ...and ties with an equally specific bucketed row, where the
		// lower row index wins.
		{S("req"), S("x"), "wild"},
		{S("req"), S("y"), "req-any"},
		// S("") and NULL are distinct: S("") meets its own cell, NULL only
		// the dontcare.
		{S(""), S("x"), "empty"},
		{Null(), S("x"), "wild"},
		{S(""), S("y"), ""},
		{Null(), S("y"), ""},
	} {
		r := m.Match(keyOf(c.inmsg, c.st))
		got := ""
		if r >= 0 {
			got = tab.Row(r).Get("out").Str()
		}
		if got != c.want {
			t.Errorf("Match(%v, %v) = %q, want %q", c.inmsg, c.st, got, c.want)
		}
	}
}

func TestMatcherRejectsNondeterminism(t *testing.T) {
	tab := MustNewTable("T", "a", "b", "out")
	tab.MustInsert(S("x"), Null(), S("one"))
	tab.MustInsert(S("y"), Null(), S("one"))
	tab.MustInsert(S("x"), Null(), S("one")) // a duplicate is fine
	if _, err := NewMatcher(tab, []string{"a", "b"}); err != nil {
		t.Fatalf("duplicate row rejected: %v", err)
	}
	tab.MustInsert(S("x"), Null(), S("two"))
	if _, err := NewMatcher(tab, []string{"a", "b"}); !errors.Is(err, ErrNondeterministic) {
		t.Fatalf("err = %v, want ErrNondeterministic", err)
	}
	if _, err := NewMatcher(tab, []string{"a", "nosuch"}); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v, want ErrUnknownColumn", err)
	}
}

// matchDomain is the cell and binding domain of the random tables: NULL,
// S(""), an integer and a few strings.
var matchDomain = []Value{Null(), S(""), I(7), S("ma"), S("mb"), S("mc")}

// randMatchTable builds a seeded table of 1–6 input columns and two
// outputs. Some rows repeat an earlier row's inputs with its outputs, so
// the table stays deterministic.
func randMatchTable(rng *rand.Rand, name string) (*Table, []string) {
	width := 1 + rng.Intn(6)
	var cols, in []string
	for k := 0; k < width; k++ {
		in = append(in, fmt.Sprintf("i%d", k))
	}
	cols = append(append(cols, in...), "o0", "o1")
	tab := MustNewTable(name, cols...)
	outs := map[string][]Value{}
	for r, n := 0, rng.Intn(40); r < n; r++ {
		row := make([]Value, len(cols))
		if r > 0 && rng.Intn(6) == 0 {
			src := rng.Intn(r)
			for j := range row {
				row[j] = tab.At(src, j)
			}
		} else {
			for k := range in {
				// Bias toward dontcares so rows overlap.
				if rng.Intn(3) == 0 {
					row[k] = Null()
				} else {
					row[k] = matchDomain[rng.Intn(len(matchDomain))]
				}
			}
		}
		key := fmt.Sprint(row[:width])
		if prev, ok := outs[key]; ok {
			copy(row[width:], prev)
		} else {
			row[width] = matchDomain[rng.Intn(len(matchDomain))]
			row[width+1] = S(fmt.Sprintf("r%d", r))
			outs[key] = row[width:]
		}
		tab.MustInsert(row...)
	}
	return tab, in
}

// randBinding draws a binding over the domain plus a value the dictionary
// has never seen.
func randBinding(rng *rand.Rand, width int) []Value {
	b := make([]Value, width)
	for k := range b {
		if rng.Intn(8) == 0 {
			b[k] = S("match-test-never-interned")
		} else {
			b[k] = matchDomain[rng.Intn(len(matchDomain))]
		}
	}
	return b
}

func TestMatcherMatchesFullScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		tab, in := randMatchTable(rng, fmt.Sprintf("T%d", trial))
		m, err := NewMatcher(tab, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		idx := make([]int, len(in))
		for k, c := range in {
			idx[k] = tab.ColIndex(c)
		}
		for probe := 0; probe < 60; probe++ {
			var b []Value
			if tab.NumRows() > 0 && probe%3 == 0 {
				// Bind some row's own inputs, dontcares included.
				src := rng.Intn(tab.NumRows())
				for j := range in {
					b = append(b, tab.At(src, j))
				}
			} else {
				b = randBinding(rng, len(in))
			}
			if got, want := m.Match(keyOf(b...)), scanMatch(tab, idx, b); got != want {
				t.Fatalf("trial %d, binding %v: Match = %d, full scan = %d\n%s", trial, b, got, want, tab)
			}
		}
	}
	if _, ok := shared.LookupCode(S("match-test-never-interned")); ok {
		t.Fatal("encoding a binding interned it")
	}
}

// TestMatcherConcurrentMatch shares one matcher among four goroutines, as
// the model checker's expansion workers do; run it under -race.
func TestMatcherConcurrentMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab *Table
	var in []string
	for tab == nil || tab.NumRows() < 20 {
		tab, in = randMatchTable(rng, "C")
	}
	m, err := NewMatcher(tab, in)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]uint32, 500)
	want := make([]int, len(keys))
	for i := range keys {
		keys[i] = keyOf(randBinding(rng, len(in))...)
		want[i] = m.Match(keys[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, k := range keys {
					if got := m.Match(k); got != want[i] {
						errs <- fmt.Sprintf("goroutine %d key %d: %d, want %d", g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
