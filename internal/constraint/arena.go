package constraint

import "sync/atomic"

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
