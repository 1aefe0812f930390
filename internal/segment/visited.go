package segment

import (
	"encoding/binary"
	"math/bits"
)

// HashTuple is the canonical 64-bit fingerprint of a code tuple:
// FNV-1a over the little-endian bytes of each code. Shard selection
// uses the high bits and slot probing the low bits, so both stay well
// distributed.
func HashTuple(t []uint32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	var b [4]byte
	for _, c := range t {
		binary.LittleEndian.PutUint32(b[:], c)
		h = (h ^ uint64(b[0])) * prime
		h = (h ^ uint64(b[1])) * prime
		h = (h ^ uint64(b[2])) * prime
		h = (h ^ uint64(b[3])) * prime
	}
	return h
}

// Visited is an exact membership index over the rows of a Store,
// sharded by the high bits of the tuple hash. Each shard is an
// open-addressed (hash, rowID) table; a hash hit is confirmed by
// decoding the stored tuple from the (possibly spilled) store, so the
// index is never probabilistic — equal fingerprints with different
// tuples coexist.
//
// Concurrency contract: distinct shards may be probed/inserted
// concurrently (the model checker partitions candidates by ShardOf);
// operations on one shard must be serialized by the caller.
type Visited struct {
	store     *Store
	shards    []vshard
	shardBits uint
}

type vshard struct {
	keys []uint64
	ids  []int64
	used int
}

// NewVisited returns an index over store with nshards shards (rounded
// up to a power of two, minimum 1).
func NewVisited(store *Store, nshards int) *Visited {
	if nshards < 1 {
		nshards = 1
	}
	n := 1
	for n < nshards {
		n <<= 1
	}
	v := &Visited{store: store, shards: make([]vshard, n), shardBits: uint(bits.Len(uint(n - 1)))}
	for i := range v.shards {
		v.shards[i].init(64)
	}
	return v
}

// ShardOf maps a tuple hash to its shard.
func (v *Visited) ShardOf(h uint64) int {
	if v.shardBits == 0 {
		return 0
	}
	return int(h >> (64 - v.shardBits))
}

func (sh *vshard) init(capHint int) {
	sh.keys = make([]uint64, capHint)
	sh.ids = make([]int64, capHint)
	for i := range sh.ids {
		sh.ids[i] = -1
	}
	sh.used = 0
}

// Lookup reports whether tuple (with hash h) is already present in
// shard, returning its row id. scratch is decode scratch space (grown
// and returned for reuse); callers probing concurrently must each pass
// their own. Lookup never mutates the index, so any number of
// concurrent Lookups may run against a frozen index (the model
// checker's parallel pre-filter relies on this).
func (v *Visited) Lookup(shard int, h uint64, tuple, scratch []uint32) (int64, bool, []uint32) {
	sh := &v.shards[shard]
	mask := uint64(len(sh.keys) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		id := sh.ids[slot]
		if id < 0 {
			return 0, false, scratch
		}
		if sh.keys[slot] == h {
			scratch = v.store.Tuple(id, scratch)
			if equalTuples(scratch, tuple) {
				return id, true, scratch
			}
		}
	}
}

// Insert records tuple (with hash h) as row id in shard. The caller
// must have established absence via Lookup; duplicate inserts create
// shadow entries.
func (v *Visited) Insert(shard int, h uint64, id int64) {
	sh := &v.shards[shard]
	if (sh.used+1)*3 >= len(sh.keys)*2 {
		sh.grow()
	}
	mask := uint64(len(sh.keys) - 1)
	slot := h & mask
	for sh.ids[slot] >= 0 {
		slot = (slot + 1) & mask
	}
	sh.keys[slot] = h
	sh.ids[slot] = id
	sh.used++
}

func (sh *vshard) grow() {
	oldKeys, oldIDs := sh.keys, sh.ids
	sh.init(len(oldKeys) * 2)
	mask := uint64(len(sh.keys) - 1)
	for i, id := range oldIDs {
		if id < 0 {
			continue
		}
		slot := oldKeys[i] & mask
		for sh.ids[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		sh.keys[slot] = oldKeys[i]
		sh.ids[slot] = id
	}
	sh.used = len(oldIDs) - countFree(oldIDs)
}

func countFree(ids []int64) int {
	n := 0
	for _, id := range ids {
		if id < 0 {
			n++
		}
	}
	return n
}

// Bytes reports the resident size of the index tables.
func (v *Visited) Bytes() int64 {
	n := int64(0)
	for i := range v.shards {
		n += 16 * int64(len(v.shards[i].keys))
	}
	return n
}

func equalTuples(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
