package constraint

import (
	"slices"
	"sync/atomic"
)

// codeKeys maps the projections of a partial table's rows onto the
// positions ps to dense ids, in first-seen order. Keys are read from the
// column vectors as codes, hashed a word at a time and stored flat,
// len(ps) codes per id, so interning allocates nothing per key. The table
// is open-addressed at a load of at most 3/4; one sized for its final key
// count never grows. A step's grouping and a family's arm memo both key
// on it.
type codeKeys struct {
	ps    []int
	keys  []uint32 // id i's key is keys[i*len(ps) : (i+1)*len(ps)]
	key   []uint32 // scratch: the row being interned
	slots []int32  // open-addressed: id + 1, 0 = empty
	mask  uint64   // len(slots) - 1
	n     int      // ids handed out
}

// newCodeKeys returns an empty table over positions ps with room for hint
// keys before it grows.
func newCodeKeys(ps []int, hint int) *codeKeys {
	size := 16
	for size*3 < hint*4 {
		size *= 2
	}
	return &codeKeys{
		ps:    ps,
		keys:  make([]uint32, 0, hint*len(ps)),
		key:   make([]uint32, len(ps)),
		slots: make([]int32, size),
		mask:  uint64(size - 1),
	}
}

// intern returns the id of row r's projection onto the table's positions
// in the column vectors cols, adding it if new.
func (t *codeKeys) intern(cols [][]uint32, r int) int32 {
	for j, p := range t.ps {
		t.key[j] = cols[p][r]
	}
	k := len(t.ps)
	for i := hashCodes(t.key) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			id := int32(t.n)
			t.keys = append(t.keys, t.key...)
			t.slots[i] = id + 1
			t.n++
			if uint64(t.n)*4 > uint64(len(t.slots))*3 {
				t.grow()
			}
			return id
		}
		if slices.Equal(t.keys[int(s-1)*k:int(s)*k], t.key) {
			return s - 1
		}
	}
}

func (t *codeKeys) grow() {
	slots := make([]int32, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	k := len(t.ps)
	for id := 0; id < t.n; id++ {
		i := hashCodes(t.keys[id*k:(id+1)*k]) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id) + 1
	}
	t.slots, t.mask = slots, mask
}

// hashCodes hashes a key a code at a time, FNV-1a style with 32-bit words
// in place of bytes, folding the high half into the low bits the slots
// index by.
func hashCodes(key []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h ^ h>>32
}

// batchCursor deals contiguous [lo, hi) batches of the index space [0, n)
// to competing workers through one atomic counter. Compared to the static
// per-worker split it replaces, workers that hit cheap (quickly pruned)
// regions immediately steal the next batch instead of idling, and the
// partitioning cannot lose indexes to integer division (the old
// per = n/workers split degenerated when n < workers). Every index in
// [0, n) is handed out exactly once; batch k covers
// [k*batch, min((k+1)*batch, n)), so results collected per batch index
// reassemble in deterministic input order.
type batchCursor struct {
	next  atomic.Uint64
	n     uint64
	batch uint64
}

// newBatchCursor sizes batches so each worker gets several turns (for
// stealing to matter) without making the batch bookkeeping dominate.
func newBatchCursor(n uint64, workers int) *batchCursor {
	if workers < 1 {
		workers = 1
	}
	batch := n / (uint64(workers) * 8)
	if batch < 1 {
		batch = 1
	}
	return &batchCursor{n: n, batch: batch}
}

// numBatches returns how many batches the cursor will deal.
func (c *batchCursor) numBatches() int {
	if c.n == 0 {
		return 0
	}
	return int((c.n + c.batch - 1) / c.batch)
}

// grab claims the next batch. It returns the batch ordinal and its index
// range; ok is false once the space is exhausted.
func (c *batchCursor) grab() (idx int, lo, hi uint64, ok bool) {
	l := c.next.Add(c.batch) - c.batch
	if l >= c.n {
		return 0, 0, 0, false
	}
	h := l + c.batch
	if h > c.n {
		h = c.n
	}
	return int(l / c.batch), l, h, true
}
