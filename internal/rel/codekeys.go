package rel

import "slices"

// CodeKeys maps fixed-width tuples of dictionary codes to dense ids, in
// first-seen order. Keys are hashed a word at a time and stored flat,
// width codes per id, so interning allocates nothing per key. The table
// is open-addressed at a load of at most 3/4; one sized for its final
// key count never grows. The solver's step grouping and arm memo, the
// executor's GROUP BY and the incremental re-check's group seeds all key
// on it.
type CodeKeys struct {
	width int
	keys  []uint32 // id i's key is keys[i*width : (i+1)*width]
	key   []uint32 // scratch: the row Row projected
	slots []int32  // open-addressed: id + 1, 0 = empty
	mask  uint64   // len(slots) - 1
	n     int      // ids handed out
}

// NewCodeKeys returns an empty table of width-code keys with room for
// hint keys before it grows.
func NewCodeKeys(width, hint int) *CodeKeys {
	size := 16
	for size*3 < hint*4 {
		size *= 2
	}
	return &CodeKeys{
		width: width,
		keys:  make([]uint32, 0, hint*width),
		key:   make([]uint32, width),
		slots: make([]int32, size),
		mask:  uint64(size - 1),
	}
}

// Len returns the number of ids handed out.
func (t *CodeKeys) Len() int { return t.n }

// Row projects row r of the column vectors cols onto the positions ps,
// which number the table's width, into the table's scratch key and
// returns it, for Intern or Find. The scratch is overwritten by the next
// call.
func (t *CodeKeys) Row(cols [][]uint32, ps []int, r int) []uint32 {
	for j, p := range ps {
		t.key[j] = cols[p][r]
	}
	return t.key
}

// Intern returns the id of key, adding a copy of it if new.
func (t *CodeKeys) Intern(key []uint32) int32 {
	i, id := t.probe(key)
	if id >= 0 {
		return id
	}
	id = int32(t.n)
	t.keys = append(t.keys, key...)
	t.slots[i] = id + 1
	t.n++
	if uint64(t.n)*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
	return id
}

// Find returns the id of key, or -1 when the table does not hold it.
func (t *CodeKeys) Find(key []uint32) int32 {
	_, id := t.probe(key)
	return id
}

// probe looks key up: its id, or -1 and the empty slot it would take.
func (t *CodeKeys) probe(key []uint32) (uint64, int32) {
	w := t.width
	for i := hashCodes(key) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if slices.Equal(t.keys[int(s-1)*w:int(s)*w], key) {
			return i, s - 1
		}
	}
}

func (t *CodeKeys) grow() {
	slots := make([]int32, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	w := t.width
	for id := 0; id < t.n; id++ {
		i := hashCodes(t.keys[id*w:(id+1)*w]) & mask
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
