package segment

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"coherdb/internal/obs"
)

// roundTrip packs rows through a Writer, seals, and checks every
// access path (Tuple, At, Stream, serialize→Read) is byte-identical.
func roundTrip(t *testing.T, rows [][]uint32, width int) {
	t.Helper()
	w := NewWriter(width)
	for _, r := range rows {
		w.Append(r)
	}
	if w.Rows() != len(rows) {
		t.Fatalf("writer rows = %d, want %d", w.Rows(), len(rows))
	}
	// Tail reads before sealing.
	for i, r := range rows {
		for j, want := range r {
			if got := w.Tuple(i, nil)[j]; got != want {
				t.Fatalf("writer Tuple(%d)[%d] = %d, want %d", i, j, got, want)
			}
		}
	}
	seg := w.Seal()
	if len(rows) == 0 {
		if seg != nil {
			t.Fatalf("sealing zero rows: got non-nil segment")
		}
		return
	}
	if seg.rows != len(rows) || seg.width != width {
		t.Fatalf("segment %dx%d, want %dx%d", seg.rows, seg.width, len(rows), width)
	}
	check := func(name string, s *Segment) {
		t.Helper()
		for i, r := range rows {
			for j, want := range r {
				if got := s.At(i, j); got != want {
					t.Fatalf("%s: At(%d,%d) = %d, want %d", name, i, j, got, want)
				}
			}
		}
		var buf []uint32
		n := 0
		s.Stream(0, s.rows, buf, func(i int, tuple []uint32) bool {
			for j, want := range rows[i] {
				if tuple[j] != want {
					t.Fatalf("%s: stream row %d col %d = %d, want %d", name, i, j, tuple[j], want)
				}
			}
			n++
			return true
		})
		if n != len(rows) {
			t.Fatalf("%s: streamed %d rows, want %d", name, n, len(rows))
		}
	}
	check("sealed", seg)

	var b bytes.Buffer
	n, err := seg.WriteTo(&b)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(b.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, b.Len())
	}
	back, err := Read(&b)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	check("deserialized", back)
}

func TestRoundTripHandPicked(t *testing.T) {
	cases := []struct {
		name string
		rows [][]uint32
	}{
		{"single", [][]uint32{{1, 2, 3}}},
		{"constant columns", [][]uint32{{7, 0, 9}, {7, 0, 9}, {7, 0, 9}}},
		{"all null codes", [][]uint32{{0, 0, 0}, {0, 0, 0}}},
		{"small deltas", [][]uint32{{100, 5, 0}, {101, 6, 1}, {103, 4, 0}, {100, 7, 1}}},
		{"max uint32 outliers", [][]uint32{
			{0, 1, math.MaxUint32},
			{math.MaxUint32, 2, 0},
			{5, 3, math.MaxUint32 - 1},
		}},
		{"mixed null and max", [][]uint32{
			{0, math.MaxUint32, 42},
			{0, 0, 42},
			{1, math.MaxUint32 - 7, 42},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip(t, tc.rows, len(tc.rows[0]))
		})
	}
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil, 4)
}

// genRows builds a random row set that exercises the interesting code
// ranges: NULL code 0, dense small codes, sparse large codes, and
// math.MaxUint32 outliers. Column widths vary per column.
func genRows(rng *rand.Rand, nrows, width int) [][]uint32 {
	kind := make([]int, width)
	for j := range kind {
		kind[j] = rng.Intn(5)
	}
	rows := make([][]uint32, nrows)
	for i := range rows {
		r := make([]uint32, width)
		for j := range r {
			switch kind[j] {
			case 0: // constant
				r[j] = 42
			case 1: // NULL-heavy small codes
				if rng.Intn(3) == 0 {
					r[j] = 0
				} else {
					r[j] = uint32(rng.Intn(16))
				}
			case 2: // mid-range dense
				r[j] = 100000 + uint32(rng.Intn(4096))
			case 3: // wide range, forces raw
				r[j] = rng.Uint32()
			default: // outliers
				switch rng.Intn(4) {
				case 0:
					r[j] = 0
				case 1:
					r[j] = math.MaxUint32
				default:
					r[j] = uint32(rng.Intn(100))
				}
			}
		}
		rows[i] = r
	}
	return rows
}

// TestRoundTripProperty is the randomized round-trip property test:
// arbitrary code vectors (NULL code 0, empty columns, max-uint32
// outliers) survive pack → seal → stream and pack → serialize → read
// byte-identical. Run under -race by scripts/bench.sh and CI.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		nrows := 1 + rng.Intn(300)
		width := 1 + rng.Intn(12)
		roundTrip(t, genRows(rng, nrows, width), width)
	}
}

func FuzzPackRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(1), uint32(math.MaxUint32), 3)
	f.Add(uint32(7), uint32(7), uint32(7), 1)
	f.Fuzz(func(t *testing.T, a, b, c uint32, n int) {
		if n <= 0 || n > 512 {
			return
		}
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = []uint32{a + uint32(i)%3, b, c ^ uint32(i)}
		}
		roundTrip(t, rows, 3)
	})
}

func TestStoreSpillRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := genRows(rng, 5000, 6)
	st := NewStore(StoreConfig{
		Width:     6,
		BlockRows: 256,
		Budget:    4096, // tiny: forces nearly everything to disk
		SpillDir:  t.TempDir(),
	})
	defer st.Close()
	for i, r := range rows {
		if id := st.Append(r); id != int64(i) {
			t.Fatalf("append id = %d, want %d", id, i)
		}
	}
	s := st.Stats()
	if s.Spills == 0 || s.SpilledBytes == 0 {
		t.Fatalf("expected spills under a 4KiB budget, got %+v", s)
	}
	if s.ResidentBytes > 4096+int64(st.tail.Bytes())+8192 {
		t.Errorf("resident bytes %d way over budget", s.ResidentBytes)
	}

	// Sequential stream over the whole store (faults spilled segments
	// transiently).
	n := 0
	st.Stream(0, st.Rows(), func(id int64, tuple []uint32) bool {
		for j, want := range rows[id] {
			if tuple[j] != want {
				t.Fatalf("stream row %d col %d = %d, want %d", id, j, tuple[j], want)
			}
		}
		n++
		return true
	})
	if n != len(rows) {
		t.Fatalf("streamed %d rows, want %d", n, len(rows))
	}

	// Random access faults segments back in under the budget.
	var scratch []uint32
	for trial := 0; trial < 500; trial++ {
		id := int64(rng.Intn(len(rows)))
		scratch = st.Tuple(id, scratch)
		for j, want := range rows[id] {
			if scratch[j] != want {
				t.Fatalf("tuple %d col %d = %d, want %d", id, j, scratch[j], want)
			}
		}
	}
	if st.Stats().Faults == 0 {
		t.Fatalf("expected faults after random access over spilled store")
	}

	// Partial stream with early stop.
	got := 0
	st.Stream(100, 400, func(id int64, tuple []uint32) bool {
		got++
		return got < 50
	})
	if got != 50 {
		t.Fatalf("early-stopped stream visited %d rows, want 50", got)
	}
}

func TestStoreConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := genRows(rng, 3000, 4)
	st := NewStore(StoreConfig{Width: 4, BlockRows: 128, Budget: 2048, SpillDir: t.TempDir()})
	defer st.Close()
	for _, r := range rows {
		st.Append(r)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			var scratch []uint32
			for trial := 0; trial < 300; trial++ {
				id := int64(rng.Intn(len(rows)))
				scratch = st.Tuple(id, scratch)
				for j, want := range rows[id] {
					if scratch[j] != want {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errBadSize("concurrent read mismatch")

func TestVisitedExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := NewStore(StoreConfig{Width: 5, BlockRows: 64, Budget: 2048, SpillDir: t.TempDir()})
	defer st.Close()
	v := NewVisited(st, 8)
	if len(v.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(v.shards))
	}

	ref := map[string]int64{}
	key := func(tup []uint32) string {
		b := make([]byte, 0, len(tup)*4)
		for _, c := range tup {
			b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		return string(b)
	}
	for trial := 0; trial < 4000; trial++ {
		tup := make([]uint32, 5)
		for j := range tup {
			tup[j] = uint32(rng.Intn(40)) // small universe → duplicates
		}
		h := HashTuple(tup)
		shard := v.ShardOf(h)
		id, ok, _ := v.Lookup(shard, h, tup, nil)
		wantID, wantOK := ref[key(tup)]
		if ok != wantOK || (ok && id != wantID) {
			t.Fatalf("lookup %v = (%d,%v), want (%d,%v)", tup, id, ok, wantID, wantOK)
		}
		if !ok {
			id := st.Append(tup)
			v.Insert(shard, h, id)
			ref[key(tup)] = id
		}
	}
	if v.Bytes() <= 0 {
		t.Fatalf("visited Bytes() = %d", v.Bytes())
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"123", 123, false},
		{"4k", 4096, false},
		{"4K", 4096, false},
		{"2KiB", 2048, false},
		{"64MB", 64 << 20, false},
		{"1g", 1 << 30, false},
		{"256MiB", 256 << 20, false},
		{"", 0, true},
		{"12x", 0, true},
		{"MB", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.err != (err != nil) || got != tc.want {
			t.Errorf("ParseBytes(%q) = (%d, %v), want (%d, err=%v)", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func BenchmarkSegmentPack(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	const rows, width = 4096, 8
	cols := make([][]uint32, width)
	for j := range cols {
		cols[j] = make([]uint32, rows)
		for i := range cols[j] {
			cols[j][i] = 1000 + uint32(rng.Intn(500)) // ~9-bit deltas
		}
	}
	b.Run("pack", func(b *testing.B) {
		b.SetBytes(rows * width * 4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Pack(cols, rows) == nil {
				b.Fatal("nil segment")
			}
		}
	})
	seg := Pack(cols, rows)
	b.Run("unpack", func(b *testing.B) {
		b.SetBytes(rows * width * 4)
		b.ReportAllocs()
		buf := make([]uint32, width)
		for i := 0; i < b.N; i++ {
			seg.Stream(0, rows, buf, func(int, []uint32) bool { return true })
		}
	})
}

// Untracking a store must retain a final stats snapshot so a metrics
// dump at process exit still reports the run's accounting.
func TestMetricsSurviveUntrack(t *testing.T) {
	st := NewStore(StoreConfig{Width: 3, BlockRows: 4})
	defer st.Close()
	for i := uint32(0); i < 20; i++ {
		st.Append([]uint32{i, i + 1, i + 2})
	}
	reg := obs.NewRegistry()
	refresh := PublishMetrics(reg)

	Track("test_untrack_snapshot", st)
	refresh()
	Untrack("test_untrack_snapshot")
	defer Track("test_untrack_snapshot", nil)

	refresh()
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `coherdb_segment_segments{store="test_untrack_snapshot"} 5`) {
		t.Fatalf("exit dump lost untracked store's gauges:\n%s", out)
	}
	if !strings.Contains(out, `coherdb_segment_resident_bytes{store="test_untrack_snapshot"}`) {
		t.Fatalf("missing resident bytes gauge:\n%s", out)
	}
}
