package rel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func catTable(t *testing.T, name string, cols []string, rows ...[]Value) *Table {
	t.Helper()
	tb, err := NewTable(name, cols...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := tb.InsertRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestCatalogDeriveAndEpochs(t *testing.T) {
	var ref CatalogRef
	c0 := ref.Load()
	if c0.Epoch() != 0 || c0.Len() != 0 {
		t.Fatalf("zero ref: epoch=%d len=%d, want 0/0", c0.Epoch(), c0.Len())
	}

	b := c0.Derive()
	b.Put(catTable(t, "cache", []string{"addr", "state"},
		[]Value{S("a0"), S("I")}))
	c1 := b.Build()
	if c1.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c1.Epoch())
	}
	if !ref.CompareAndSwap(c0, c1) {
		t.Fatal("first publish over zero ref failed")
	}
	if got := ref.Load(); got != c1 {
		t.Fatalf("Load = %p, want %p", got, c1)
	}

	// A stale CAS (from c0 again) must fail now.
	b2 := c0.Derive()
	b2.Put(catTable(t, "dir", []string{"addr"}))
	if ref.CompareAndSwap(c0, b2.Build()) {
		t.Fatal("stale CAS succeeded")
	}
	if got := ref.Load(); got != c1 {
		t.Fatal("stale CAS mutated the ref")
	}
}

func TestCatalogSchemaGenAndFingerprint(t *testing.T) {
	c0 := emptyCatalog

	b := c0.Derive()
	b.Put(catTable(t, "cache", []string{"addr", "state"}))
	c1 := b.Build()
	if c1.schemaGen == c0.schemaGen {
		t.Fatal("creating a table did not advance SchemaGen")
	}
	if c1.Fingerprint() == c0.Fingerprint() {
		t.Fatal("creating a table did not change Fingerprint")
	}

	// Identically-shaped replacement (the DML / pipeline-revision path)
	// keeps SchemaGen and therefore the fingerprint.
	shaped := catTable(t, "cache", []string{"addr", "state"},
		[]Value{S("a1"), S("S")})
	b = c1.Derive()
	b.Put(shaped)
	c2 := b.Build()
	if c2.schemaGen != c1.schemaGen {
		t.Fatal("same-shape replacement advanced SchemaGen")
	}
	if c2.Fingerprint() != c1.Fingerprint() {
		t.Fatal("same-shape replacement changed Fingerprint")
	}
	if c2.Epoch() != c1.Epoch()+1 {
		t.Fatalf("epoch = %d, want %d", c2.Epoch(), c1.Epoch()+1)
	}

	// DROP + CREATE of an identically-shaped table must land on a new
	// fingerprint: the generation moved, so cached plans cannot survive
	// the DDL boundary even though the shape is byte-identical.
	b = c2.Derive()
	if !b.Drop("cache") {
		t.Fatal("Drop missed an existing table")
	}
	b.Put(catTable(t, "cache", []string{"addr", "state"}))
	c3 := b.Build()
	if c3.Fingerprint() == c2.Fingerprint() {
		t.Fatal("DROP+CREATE same shape kept the fingerprint")
	}

	// Different column list also changes the fingerprint.
	b = c3.Derive()
	b.Put(catTable(t, "cache", []string{"addr", "state", "owner"}))
	c4 := b.Build()
	if c4.Fingerprint() == c3.Fingerprint() {
		t.Fatal("shape change kept the fingerprint")
	}
}

func TestCatalogNamesSortedAndImmutable(t *testing.T) {
	b := emptyCatalog.Derive()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		b.Put(catTable(t, n, []string{"x"}))
	}
	c := b.Build()
	names := c.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	// Deriving and dropping must not disturb the base catalog.
	d := c.Derive()
	d.Drop("mid")
	d.Build()
	if _, ok := c.Table("mid"); !ok {
		t.Fatal("Derive leaked a Drop into its base")
	}
}

// TestConcurrentSnapshotReaders is the -race acceptance test for epoch
// pinning at the rel layer: reader goroutines snapshot the published
// table and iterate ColCodes while a writer keeps appending and
// rewriting the source. Each reader asserts it sees exactly the epoch
// it pinned — same row count, same codes — no matter how far the writer
// has moved on.
func TestConcurrentSnapshotReaders(t *testing.T) {
	var ref CatalogRef
	seed := catTable(t, "cache", []string{"addr", "state"})
	for i := 0; i < 64; i++ {
		seed.MustInsert(S("a"), I(int64(i)))
	}
	b := emptyCatalog.Derive()
	b.Put(seed.Snapshot())
	if !ref.CompareAndSwap(emptyCatalog, b.Build()) {
		t.Fatal("seed publish failed")
	}

	const (
		readers  = 8
		writerN  = 200
		readIter = 100
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: derive a working copy off the current epoch, mutate it
	// (alternating appends and rewrites), publish the successor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writerN; i++ {
			cur := ref.Load()
			base, _ := cur.Table("cache")
			work := base.Snapshot()
			if i%3 == 2 {
				deleteWhere(work, func(r Row) bool {
					v := r.Get("state").Int()
					return v%2 == 1
				})
			} else {
				work.MustInsert(S("a"), I(int64(1000+i)))
				work.MustInsert(S("a"), I(int64(2000+i)))
			}
			nb := cur.Derive()
			nb.Put(work)
			if !ref.CompareAndSwap(cur, nb.Build()) {
				t.Error("single writer lost a CAS")
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cat := ref.Load() // pin one epoch
				tb, ok := cat.Table("cache")
				if !ok {
					t.Error("pinned epoch lost its table")
					return
				}
				pin := tb.Snapshot()
				wantRows := pin.NumRows()
				first := append([]uint32(nil), pin.ColCodes(1)...)
				for k := 0; k < readIter; k++ {
					if pin.NumRows() != wantRows {
						t.Errorf("pinned row count moved: %d -> %d", wantRows, pin.NumRows())
						return
					}
					codes := pin.ColCodes(1)
					for i, c := range codes {
						if c != first[i] {
							t.Errorf("pinned codes changed at row %d", i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	final, _ := ref.Load().Table("cache")
	if final.NumRows() == 64 {
		t.Fatal("writer published no visible work")
	}
}

func TestCarryIndexesAppendOnly(t *testing.T) {
	src := catTable(t, "cache", []string{"addr", "state"})
	for i := 0; i < 10; i++ {
		src.MustInsert(S("a"), I(int64(i%3)))
	}
	if _, err := src.IndexOn("state"); err != nil {
		t.Fatal(err)
	}

	// Append-only derivation: index is extended, not rebuilt, and the
	// source's buckets stay frozen.
	work := src.Snapshot()
	work.MustInsert(S("a"), I(1))
	work.CarryIndexes(src)
	ix, err := work.IndexOn("state")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup(I(1))); got != 4 {
		t.Fatalf("extended index Lookup(1) = %d rows, want 4", got)
	}
	srcIx, _ := src.IndexOn("state")
	if got := len(srcIx.Lookup(I(1))); got != 3 {
		t.Fatalf("source index mutated: Lookup(1) = %d rows, want 3", got)
	}

	// Rewriting derivation: CarryIndexes rebuilds over the same columns.
	work2 := src.Snapshot()
	deleteWhere(work2, func(r Row) bool {
		v := r.Get("state").Int()
		return v == 1
	})
	work2.CarryIndexes(src)
	ix2, err := work2.IndexOn("state")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix2.Lookup(I(1))); got != 0 {
		t.Fatalf("rebuilt index Lookup(1) = %d rows, want 0", got)
	}
	if got := len(ix2.Lookup(I(0))); got != 4 {
		t.Fatalf("rebuilt index Lookup(0) = %d rows, want 4", got)
	}
}

// TestCatalogFingerprintMatchesScratch drives a builder chain through a
// random mix of DDL (new names, reshaped replacements, drops, schema
// bumps) and DML-like epochs (identically-shaped replacements, which
// reuse the base's names and fingerprint), and checks every epoch's
// Names and Fingerprint against ones computed from scratch over its
// tables.
func TestCatalogFingerprintMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][]string{{"a"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}}
	names := []string{"D", "M", "C", "N", "t"}
	c := emptyCatalog
	for step := 0; step < 500; step++ {
		b := c.Derive()
		for k := 1 + rng.Intn(2); k > 0; k-- {
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(10); {
			case op < 5: // DML: same name, same shape
				if old, ok := b.Table(name); ok {
					b.Put(old.Snapshot())
				}
			case op < 8:
				b.Put(catTable(t, name, shapes[rng.Intn(len(shapes))]))
			case op < 9:
				b.Drop(name)
			default:
				b.BumpSchema()
			}
		}
		c = b.Build()
		var want []string
		for n := range c.tables {
			want = append(want, n)
		}
		sort.Strings(want)
		if fmt.Sprint(c.Names()) != fmt.Sprint(want) {
			t.Fatalf("epoch %d: Names %v, want %v", c.Epoch(), c.Names(), want)
		}
		scratch := &Catalog{schemaGen: c.schemaGen, tables: c.tables, names: want}
		if got, w := c.Fingerprint(), scratch.fingerprint(); got != w {
			t.Fatalf("epoch %d: Fingerprint %x, from scratch %x", c.Epoch(), got, w)
		}
	}
}

// TestCarryIndexesKeepsUnchanged: a rewrite that keeps the row count
// carries every index whose columns it left alone, sharing its buckets,
// and rebuilds the rest. An insert into either table then copies the
// shared buckets before writing, so the other table's index stays as
// it was.
func TestCarryIndexesKeepsUnchanged(t *testing.T) {
	src := catTable(t, "cache", []string{"addr", "state", "owner"})
	for i := 0; i < 12; i++ {
		src.MustInsert(S("a"), I(int64(i%3)), I(int64(i%4)))
	}
	for _, c := range []string{"state", "owner"} {
		if _, err := src.IndexOn(c); err != nil {
			t.Fatal(err)
		}
	}
	work := src.Snapshot()
	if err := work.Set(5, "owner", I(9)); err != nil {
		t.Fatal(err)
	}
	work.CarryIndexes(src)

	buckets := func(tb *Table, col string) map[string][]int {
		ix, err := tb.IndexOn(col)
		if err != nil {
			t.Fatal(err)
		}
		return ix.buckets
	}
	rebuilt := func(tb *Table, col string) map[string][]int {
		ix, err := BuildIndex(tb, col)
		if err != nil {
			t.Fatal(err)
		}
		return ix.buckets
	}
	same := func(a, b map[string][]int) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if !same(buckets(work, "state"), buckets(src, "state")) {
		t.Fatal("the index over the unchanged column was not carried as it is")
	}
	if same(buckets(work, "owner"), buckets(src, "owner")) {
		t.Fatal("the index over the changed column was carried")
	}
	for _, c := range []string{"state", "owner"} {
		if !reflect.DeepEqual(buckets(work, c), rebuilt(work, c)) {
			t.Fatalf("carried index on %s differs from BuildIndex", c)
		}
	}

	// Both sides extend the bucket for state = 1, which has spare
	// capacity in the shared storage, with different rows.
	work.MustInsert(S("w"), I(1), I(0))
	srcBefore := rebuilt(src, "state")
	if !reflect.DeepEqual(buckets(src, "state"), srcBefore) {
		t.Fatal("an insert into the new table changed the source's index")
	}
	src.MustInsert(S("s"), I(1), I(1))
	src.MustInsert(S("s"), I(1), I(2))
	for _, tb := range []*Table{src, work} {
		if !reflect.DeepEqual(buckets(tb, "state"), rebuilt(tb, "state")) {
			t.Fatalf("%p: index on state differs from BuildIndex after both sides inserted", tb)
		}
	}
}
