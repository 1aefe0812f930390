package constraint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"coherdb/internal/rel"
)

// TestBatchCursorCoversEveryIndexOnce drains a batchCursor sequentially
// and checks the dealt ranges partition [0, n) exactly — in particular for
// n smaller than the worker count, where the old static per-worker
// division (per = n/workers = 0) dropped every index.
func TestBatchCursorCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 8}, {1, 8}, {3, 8}, {7, 8}, {8, 8}, {9, 8},
		{100, 8}, {1000, 3}, {1 << 12, 16}, {5, 1}, {1, 1},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			c := newBatchCursor(uint64(tc.n), tc.workers)
			seen := make([]int, tc.n)
			batches := 0
			lastIdx := -1
			for {
				idx, lo, hi, ok := c.grab()
				if !ok {
					break
				}
				batches++
				if idx != lastIdx+1 {
					t.Fatalf("batch ordinal %d after %d; sequential grabs must be dense", idx, lastIdx)
				}
				lastIdx = idx
				if lo >= hi {
					t.Fatalf("empty batch [%d, %d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			}
			if batches != c.numBatches() {
				t.Fatalf("grabbed %d batches, numBatches says %d", batches, c.numBatches())
			}
			for i, cnt := range seen {
				if cnt != 1 {
					t.Fatalf("index %d dealt %d times", i, cnt)
				}
			}
		})
	}
}

// TestBatchCursorConcurrent drains one cursor from many goroutines and
// checks every index is still dealt exactly once.
func TestBatchCursorConcurrent(t *testing.T) {
	const n = 1 << 14
	c := newBatchCursor(n, 8)
	seen := make([]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, lo, hi, ok := c.grab()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range seen {
		if seen[i] != 1 {
			t.Fatalf("index %d dealt %d times", i, seen[i])
		}
	}
}

// TestMonolithicTinySpaceManyWorkers pins the worker-split bug: a space
// smaller than the worker count must still enumerate every assignment
// exactly once and agree with the incremental solver.
func TestMonolithicTinySpaceManyWorkers(t *testing.T) {
	s := NewSpec("tiny")
	mustDo(t, s.AddColumn(Column{Name: "a", Values: []string{"1", "2", "3"}, NoNull: true}))
	tab, stats, err := MonolithicOpts(s, Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (space < workers must not drop or duplicate)", tab.NumRows())
	}
	if stats.Candidates != 3 {
		t.Fatalf("candidates = %d, want 3", stats.Candidates)
	}
	inc, _, err := SolveOpts(s, Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := tab.EqualRows(inc); err != nil || !eq {
		t.Fatalf("monolithic and incremental disagree on tiny space: %v", err)
	}
}

// TestGroupTableIntern checks the code-keyed group table: dense ids in
// first-seen order, a duplicate projection read from a different row, and
// growth past the initial slot count.
func TestGroupTableIntern(t *testing.T) {
	const n = 300
	// Rows i and i+n project equally onto positions 0 and 2; column 1,
	// outside the projection, differs on every row. Position 2's codes
	// differ only above bit 20, which the slot index must still see.
	cols := make([][]uint32, 3)
	for j := range cols {
		cols[j] = make([]uint32, 2*n)
	}
	for i := range cols[0] {
		k := uint32(i % n)
		cols[0][i] = k / 16
		cols[1][i] = uint32(i)
		cols[2][i] = k % 16 << 20
	}
	keys := newCodeKeys([]int{0, 2}, 0)
	slots := len(keys.slots)
	for i := 0; i < n; i++ {
		if id := keys.intern(cols, i); id != int32(i) {
			t.Fatalf("row %d interns as %d, want %d", i, id, i)
		}
	}
	for i := n; i < 2*n; i++ {
		if id := keys.intern(cols, i); id != int32(i-n) {
			t.Fatalf("row %d interns as %d, want row %d's id %d", i, id, i-n, i-n)
		}
	}
	if keys.n != n {
		t.Fatalf("%d ids, want %d", keys.n, n)
	}
	if len(keys.slots) <= slots {
		t.Fatalf("%d slots after %d keys: the table never grew past its initial %d", len(keys.slots), n, slots)
	}
}

// TestConcurrentSolvesShareCompiledKernels solves one spec from many
// goroutines at once: the compiled-kernel cache on the spec must be safe
// to build and share concurrently (exercised under -race by bench.sh),
// and every solve must produce identical rows.
func TestConcurrentSolvesShareCompiledKernels(t *testing.T) {
	spec := figure3Spec(t)
	const goroutines = 8
	tables := make([]*rel.Table, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g], _, errs[g] = Solve(spec)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if eq, err := tables[0].EqualRows(tables[g]); err != nil || !eq {
			t.Fatalf("solve %d disagrees with solve 0: %v", g, err)
		}
	}
}

// TestSolveStatsMemoAndCompile checks the new Stats fields: the readex
// fragment's projection memo must fire (rows share referenced-column
// projections), and compile time is measured on the first solve of a spec.
func TestSolveStatsMemoAndCompile(t *testing.T) {
	spec := figure3Spec(t)
	_, stats, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoHits == 0 {
		t.Fatal("expected projection-memo hits on the readex fragment")
	}
	if stats.CompileTime <= 0 {
		t.Fatal("first solve must report a positive CompileTime")
	}
	if stats.MemoHits > stats.Candidates {
		t.Fatalf("memo hits %d exceed %d candidates", stats.MemoHits, stats.Candidates)
	}
}

// TestMonolithicAcrossLaneBatches pins MonolithicOpts where its cursor
// batches span several lane batches plus a partial one, whatever the
// host's CPU count: at one worker a batch is SpaceSize/8 assignments, at
// four SpaceSize/32, against lane batches of monoLanes. The rows must be
// Solve's, row for row, every assignment must be tested once, and a
// constraint whose function fails must fail the solve with its error.
func TestMonolithicAcrossLaneBatches(t *testing.T) {
	errBoom := errors.New("boom")
	build := func(boom bool) *Spec {
		s := NewSpec("lanes")
		vals := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"}
		for i := 0; i < 5; i++ {
			mustDo(t, s.AddColumn(Column{Name: fmt.Sprintf("c%d", i), Values: vals, NoNull: true}))
		}
		// odd(x, y) reports whether x's digit is odd; with boom it fails
		// on (v8, v9), which only the last tenth of the space holds.
		s.RegisterFunc("odd", func(args []rel.Value) (rel.Value, error) {
			if boom && args[0].Str() == "v8" && args[1].Str() == "v9" {
				return rel.Null(), errBoom
			}
			return rel.B((args[0].Str()[1]-'0')%2 == 1), nil
		})
		mustDo(t, s.Constrain("c1", `c0 <= c1`))
		mustDo(t, s.Constrain("c2", `odd(c2, c0) ? c2 <> c1 : c2 in (v0, v4, v8)`))
		mustDo(t, s.Constrain("c3", `c3 between c1 and c2 or c3 = v9`))
		mustDo(t, s.Constrain("c4", `odd(c0, c4) or c4 >= c3`))
		return s
	}
	s := build(false)
	space := s.SpaceSize()
	for _, workers := range []int{1, 4} {
		if batch := space / uint64(8*workers); batch <= 2*monoLanes || batch%monoLanes == 0 {
			t.Fatalf("workers=%d: a cursor batch of %d assignments does not span several lane batches plus a partial one", workers, batch)
		}
		inc, _, err := SolveOpts(s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		mono, stats, err := MonolithicOpts(s, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Candidates != space {
			t.Fatalf("workers=%d: %d candidates, want the space's %d", workers, stats.Candidates, space)
		}
		if inc.NumRows() == 0 || mono.NumRows() != inc.NumRows() {
			t.Fatalf("workers=%d: monolithic %d rows, incremental %d", workers, mono.NumRows(), inc.NumRows())
		}
		for i := 0; i < inc.NumRows(); i++ {
			for j := 0; j < inc.NumCols(); j++ {
				if mono.CodeAt(i, j) != inc.CodeAt(i, j) {
					t.Fatalf("workers=%d row %d: monolithic %v, incremental %v", workers, i, mono.Row(i), inc.Row(i))
				}
			}
		}
		if _, _, err := MonolithicOpts(build(true), Options{Workers: workers}); !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: a failing constraint function gives err = %v, want %v", workers, err, errBoom)
		}
	}
}
