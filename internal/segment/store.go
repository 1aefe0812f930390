package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// StoreConfig configures a Store.
type StoreConfig struct {
	// Width is the fixed number of codes per row. Required.
	Width int
	// BlockRows is the number of rows accumulated before the active
	// writer is sealed into a compressed segment. Defaults to 4096.
	BlockRows int
	// Budget caps the resident bytes of sealed segments; when the cap
	// is exceeded and SpillDir is set, cold segments are written to
	// disk and dropped from memory. Zero means unlimited.
	Budget int64
	// SpillDir, when non-empty, enables spill-to-disk under Budget
	// pressure. Spill files live in a private subdirectory and are
	// removed by Close.
	SpillDir string
}

// storeSeg is one sealed block: resident (seg != nil), spilled
// (seg == nil, path != ""), or both (resident with a disk copy).
type storeSeg struct {
	seg       *Segment
	firstRow  int64
	rows      int
	memBytes  int64
	diskBytes int64
	path      string
	lastUse   int64
}

// Store is an append-only sequence of fixed-width code rows backed by
// compressed segments, with an optional byte budget and spill-to-disk.
//
// Concurrency contract: Append and Seal must be serialized by the
// caller and must not overlap with reads; Tuple and Stream may run
// concurrently with each other (faulting spilled segments back in is
// internally synchronized). This matches the model checker's phased
// level-synchronous use.
type Store struct {
	cfg StoreConfig

	mu       sync.RWMutex
	segs     []*storeSeg
	tail     *Writer
	tailRow  int64 // global row id of the first tail row
	rows     int64
	resident int64 // sealed resident bytes (excludes tail)
	spilled  int64 // bytes currently on disk
	clock    int64
	spillSeq int
	dir      string // created lazily under cfg.SpillDir

	spills  atomic.Int64
	faults  atomic.Int64
	sealed  atomic.Int64
	onDisk  atomic.Int64 // segments currently without a resident copy
	closeMu sync.Mutex
	closed  bool
}

// NewStore returns an empty store for rows of cfg.Width codes.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Width <= 0 {
		panic(fmt.Sprintf("segment: store width %d", cfg.Width))
	}
	if cfg.BlockRows <= 0 {
		cfg.BlockRows = 4096
	}
	return &Store{cfg: cfg, tail: NewWriter(cfg.Width)}
}

// Rows reports the total rows appended (sealed + unsealed).
func (st *Store) Rows() int64 { return st.rows }

// Append adds one row and returns its global row id. When the active
// writer reaches BlockRows it is sealed (and possibly spilled).
func (st *Store) Append(tuple []uint32) int64 {
	id := st.rows
	st.tail.Append(tuple)
	st.rows++
	if st.tail.Rows() >= st.cfg.BlockRows {
		st.sealTail()
	}
	return id
}

func (st *Store) sealTail() {
	n := st.tail.Rows()
	seg := st.tail.Seal()
	if seg == nil {
		return
	}
	ss := &storeSeg{
		seg:      seg,
		firstRow: st.tailRow,
		rows:     n,
		memBytes: seg.Bytes(),
	}
	st.mu.Lock()
	ss.lastUse = st.tick()
	st.segs = append(st.segs, ss)
	st.resident += ss.memBytes
	st.tailRow += int64(n)
	st.sealed.Store(int64(len(st.segs)))
	st.evictLocked(nil)
	st.mu.Unlock()
}

func (st *Store) tick() int64 {
	st.clock++
	return st.clock
}

// evictLocked spills least-recently-used resident segments until the
// sealed resident bytes fit the budget. keep, when non-nil, is never
// evicted (the segment just faulted in). Requires st.mu held.
func (st *Store) evictLocked(keep *storeSeg) {
	if st.cfg.Budget <= 0 || st.cfg.SpillDir == "" {
		return
	}
	for st.resident > st.cfg.Budget {
		var victim *storeSeg
		for _, ss := range st.segs {
			if ss.seg == nil || ss == keep {
				continue
			}
			if victim == nil || ss.lastUse < victim.lastUse {
				victim = ss
			}
		}
		if victim == nil {
			return
		}
		if err := st.spillLocked(victim); err != nil {
			// Spill failure (disk full, permissions): stop evicting and
			// keep the segment resident rather than lose data.
			return
		}
	}
}

// spillLocked writes victim to disk (if not already there) and drops
// its resident copy. Requires st.mu held.
func (st *Store) spillLocked(victim *storeSeg) error {
	if victim.path == "" {
		if st.dir == "" {
			d, err := os.MkdirTemp(st.cfg.SpillDir, "coherseg-*")
			if err != nil {
				return err
			}
			st.dir = d
		}
		st.spillSeq++
		path := filepath.Join(st.dir, fmt.Sprintf("seg-%06d.csg", st.spillSeq))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		n, err := victim.seg.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
			return err
		}
		victim.path = path
		victim.diskBytes = n
		st.spilled += n
	}
	victim.seg = nil
	st.resident -= victim.memBytes
	st.spills.Add(1)
	st.onDisk.Add(1)
	return nil
}

// loadFile reads a spilled segment payload from disk.
func loadFile(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// segFor locates the sealed segment containing global row id, or nil
// if id lives in the tail. Requires st.mu held (read or write).
func (st *Store) segForLocked(id int64) *storeSeg {
	if id >= st.tailRow {
		return nil
	}
	i := sort.Search(len(st.segs), func(i int) bool {
		return st.segs[i].firstRow+int64(st.segs[i].rows) > id
	})
	return st.segs[i]
}

// Tuple decodes global row id into dst (grown if needed). Spilled
// segments fault back in (and may evict another segment to stay under
// budget).
func (st *Store) Tuple(id int64, dst []uint32) []uint32 {
	st.mu.RLock()
	if id >= st.tailRow {
		dst = st.tail.Tuple(int(id-st.tailRow), dst)
		st.mu.RUnlock()
		return dst
	}
	ss := st.segForLocked(id)
	seg := ss.seg
	if seg != nil {
		atomic.StoreInt64(&ss.lastUse, atomic.LoadInt64(&st.clock))
		st.mu.RUnlock()
		return seg.Tuple(int(id-ss.firstRow), dst)
	}
	st.mu.RUnlock()

	st.mu.Lock()
	if ss.seg == nil {
		loaded, err := loadFile(ss.path)
		if err != nil {
			st.mu.Unlock()
			panic(fmt.Sprintf("segment: fault %s: %v", ss.path, err))
		}
		ss.seg = loaded
		st.resident += ss.memBytes
		st.faults.Add(1)
		st.onDisk.Add(-1)
		ss.lastUse = st.tick()
		st.evictLocked(ss)
	}
	seg = ss.seg
	ss.lastUse = st.tick()
	st.mu.Unlock()
	return seg.Tuple(int(id-ss.firstRow), dst)
}

// Stream decodes global rows [lo, hi) in order, invoking fn with the
// global row id and a reused scratch tuple; returning false stops the
// stream. Spilled segments are read sequentially from disk into a
// transient buffer that is NOT cached (a full scan does not evict the
// hot working set), so out-of-core scans run at sequential-read speed
// without mmap.
func (st *Store) Stream(lo, hi int64, fn func(id int64, tuple []uint32) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > st.rows {
		hi = st.rows
	}
	if lo >= hi {
		return
	}
	buf := make([]uint32, st.cfg.Width)
	for lo < hi {
		st.mu.RLock()
		ss := st.segForLocked(lo)
		if ss == nil { // tail
			tail, start := st.tail, st.tailRow
			st.mu.RUnlock()
			for ; lo < hi; lo++ {
				tail.Tuple(int(lo-start), buf)
				if !fn(lo, buf) {
					return
				}
			}
			return
		}
		seg := ss.seg
		first, rows, path := ss.firstRow, ss.rows, ss.path
		if seg != nil {
			atomic.StoreInt64(&ss.lastUse, atomic.LoadInt64(&st.clock))
		}
		st.mu.RUnlock()
		if seg == nil {
			loaded, err := loadFile(path)
			if err != nil {
				panic(fmt.Sprintf("segment: stream %s: %v", path, err))
			}
			seg = loaded
			st.faults.Add(1)
		}
		end := first + int64(rows)
		if end > hi {
			end = hi
		}
		stop := false
		seg.Stream(int(lo-first), int(end-first), buf, func(i int, t []uint32) bool {
			if !fn(first+int64(i), t) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
		lo = end
	}
}

// Stats is a point-in-time snapshot of the store's memory accounting.
type Stats struct {
	Rows          int64 // total rows appended
	Segments      int64 // sealed segments
	SpilledSegs   int64 // sealed segments currently only on disk
	ResidentBytes int64 // sealed resident bytes + unsealed tail bytes
	SpilledBytes  int64 // bytes in spill files
	Spills        int64 // cumulative segment spill events
	Faults        int64 // cumulative disk reads (random faults + stream loads)
}

// Stats samples the store's counters.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	s := Stats{
		Rows:          st.rows,
		Segments:      int64(len(st.segs)),
		SpilledSegs:   st.onDisk.Load(),
		ResidentBytes: st.resident + st.tail.Bytes(),
		SpilledBytes:  st.spilled,
		Spills:        st.spills.Load(),
		Faults:        st.faults.Load(),
	}
	st.mu.RUnlock()
	return s
}

// Close removes any spill files. The store must not be used afterwards.
func (st *Store) Close() error {
	st.closeMu.Lock()
	defer st.closeMu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	st.mu.Lock()
	dir := st.dir
	st.dir = ""
	st.segs = nil
	st.mu.Unlock()
	if dir != "" {
		return os.RemoveAll(dir)
	}
	return nil
}
