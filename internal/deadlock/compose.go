package deadlock

import "coherdb/internal/pool"

// Composition (§4.1) runs over integers: every distinct VAssign of one
// analysis is interned to a dense atom id, every atom carries a dense
// composition-key id, each dependency table becomes atom arrays with an
// index of its rows by input key, the pairwise joins emit row-index pairs,
// and a serial pass keeps each (input, output) atom pair's first occurrence
// in a bitset. A DepRow, and its Origin string, is built only for a row
// that survives.

// interner maps the assignments of one analysis to dense atom ids and each
// atom to a dense composition-key id: (s, d, v) when relaxed — the
// message-agnostic match that captures transaction interleavings — and all
// of (m, s, d, v) when exact.
type interner struct {
	relaxed bool
	ids     map[VAssign]int32
	atoms   []VAssign
	keyIDs  map[VAssign]int32
	key     []int32 // atom id -> composition-key id
}

func (n *interner) intern(a VAssign) int32 {
	if id, ok := n.ids[a]; ok {
		return id
	}
	id := int32(len(n.atoms))
	n.ids[a] = id
	n.atoms = append(n.atoms, a)
	k := a
	if n.relaxed {
		k.M = ""
	}
	kid, ok := n.keyIDs[k]
	if !ok {
		kid = int32(len(n.keyIDs))
		n.keyIDs[k] = kid
	}
	n.key = append(n.key, kid)
	return id
}

// itable is a dependency table over atom ids. After index, the rows whose
// input has composition key k are byIn[start[k]:start[k+1]], in table order.
type itable struct {
	in, out     []int32
	origin      []string
	start, byIn []int32
}

func (n *interner) table(rows []DepRow) *itable {
	t := &itable{in: make([]int32, len(rows)), out: make([]int32, len(rows)), origin: make([]string, len(rows))}
	for i, r := range rows {
		t.in[i], t.out[i], t.origin[i] = n.intern(r.In), n.intern(r.Out), r.Origin
	}
	return t
}

// index builds the by-input-key index over the table's current rows. It
// must run after every atom of the analysis is interned.
func (t *itable) index(key []int32, nkeys int) {
	t.start = make([]int32, nkeys+1)
	for _, a := range t.in {
		t.start[key[a]+1]++
	}
	for k := 1; k <= nkeys; k++ {
		t.start[k] += t.start[k-1]
	}
	next := append([]int32(nil), t.start[:nkeys]...)
	t.byIn = make([]int32, len(t.in))
	for r, a := range t.in {
		t.byIn[next[key[a]]] = int32(r)
		next[key[a]]++
	}
}

// join calls fn(r, s) for every row r of t1 and row s of t2 where r's output
// key equals s's input key, in t1 order then t2 order: for R=(R1,R2) and
// S=(S3,S4) with R2 matching S3 the composed row is (R1,S4). Only the rows
// t2 was indexed over are matched.
func join(t1, t2 *itable, key []int32, fn func(r, s int32)) {
	for r, a := range t1.out {
		k := key[a]
		for _, s := range t2.byIn[t2.start[k]:t2.start[k+1]] {
			fn(int32(r), s)
		}
	}
}

// joinSize counts the pairs join(t1, t2, key, ...) visits.
func joinSize(t1, t2 *itable, key []int32) int {
	n := 0
	for _, a := range t1.out {
		n += int(t2.start[key[a]+1] - t2.start[key[a]])
	}
	return n
}

// dedupTable accumulates the protocol dependency table over atom ids,
// keeping the first occurrence of each (input, output) pair.
type dedupTable struct {
	itable
	natoms int
	seen   []uint64 // natoms×natoms bitset over (input, output)
}

func newDedupTable(natoms int) *dedupTable {
	return &dedupTable{natoms: natoms, seen: make([]uint64, (natoms*natoms+63)/64)}
}

// fresh marks (in, out) seen and reports whether it was new.
func (d *dedupTable) fresh(in, out int32) bool {
	bit := int(in)*d.natoms + int(out)
	w, m := bit/64, uint64(1)<<(bit%64)
	if d.seen[w]&m != 0 {
		return false
	}
	d.seen[w] |= m
	return true
}

func (d *dedupTable) add(in, out int32, origin string) {
	d.in = append(d.in, in)
	d.out = append(d.out, out)
	d.origin = append(d.origin, origin)
}

// composition is the outcome of composeProtocol.
type composition struct {
	rows []DepRow
	// composed counts the pairwise rows before deduplication (first round
	// only under closure); rounds the composition rounds; atoms the
	// distinct assignments interned.
	composed, rounds, atoms int
}

// composeProtocol forms the protocol dependency table from per-placement
// sets of individual tables: every individual row (set by set, table by
// table), then for every set and ordered pair (i, j) of its tables the
// pairwise composition of table i with table j, deduplicated on (input,
// output) keeping first occurrences. With closure it then composes the
// protocol table with itself until no row is added — the paper's abandoned
// first attempt. Pairwise joins run on exec with up to workers
// participants; deduplication is serial, so the output order is fixed.
func composeProtocol(sets [][][]DepRow, relaxed, closure bool, exec *pool.Pool, workers int) composition {
	n := &interner{relaxed: relaxed, ids: map[VAssign]int32{}, keyIDs: map[VAssign]int32{}}
	tabs := make([][]*itable, len(sets))
	for si, set := range sets {
		tabs[si] = make([]*itable, len(set))
		for ti, rows := range set {
			tabs[si][ti] = n.table(rows)
		}
	}
	nkeys := len(n.keyIDs)
	for _, set := range tabs {
		for _, t := range set {
			t.index(n.key, nkeys)
		}
	}

	type job struct{ si, i, j int }
	var jobs []job
	for si, set := range tabs {
		for i := range set {
			for j := range set {
				jobs = append(jobs, job{si: si, i: i, j: j})
			}
		}
	}
	// Each job fills its own exactly-sized stretch of one pair buffer with
	// (t1 row, t2 row) index pairs packed hi/lo.
	offs := make([]int, len(jobs)+1)
	for k, jb := range jobs {
		offs[k+1] = offs[k] + joinSize(tabs[jb.si][jb.i], tabs[jb.si][jb.j], n.key)
	}
	buf := make([]uint64, offs[len(jobs)])
	exec.Each(workers, len(jobs), 1, func(k, _, _ int) error {
		jb := jobs[k]
		out := buf[offs[k]:offs[k]:offs[k+1]]
		join(tabs[jb.si][jb.i], tabs[jb.si][jb.j], n.key, func(r, s int32) {
			out = append(out, uint64(r)<<32|uint64(s))
		})
		return nil
	})

	proto := newDedupTable(len(n.atoms))
	for _, set := range tabs {
		for _, t := range set {
			for r := range t.in {
				if proto.fresh(t.in[r], t.out[r]) {
					proto.add(t.in[r], t.out[r], t.origin[r])
				}
			}
		}
	}
	c := composition{composed: len(buf), rounds: 1, atoms: len(n.atoms)}
	for k, jb := range jobs {
		t1, t2 := tabs[jb.si][jb.i], tabs[jb.si][jb.j]
		for _, p := range buf[offs[k]:offs[k+1]] {
			r, s := int32(p>>32), int32(uint32(p))
			if proto.fresh(t1.in[r], t2.out[s]) {
				proto.add(t1.in[r], t2.out[s], t1.origin[r]+"*"+t2.origin[s])
			}
		}
	}

	// Closure rounds compose the table as it stood at the round's start;
	// rows appended during the round join only from the next round on.
	for closure {
		c.rounds++
		before := len(proto.in)
		proto.index(n.key, nkeys)
		snap := proto.itable
		join(&snap, &snap, n.key, func(r, s int32) {
			if proto.fresh(snap.in[r], snap.out[s]) {
				proto.add(snap.in[r], snap.out[s], snap.origin[r]+"*"+snap.origin[s])
			}
		})
		closure = len(proto.in) > before
	}

	c.rows = make([]DepRow, len(proto.in))
	for i := range c.rows {
		c.rows[i] = DepRow{In: n.atoms[proto.in[i]], Out: n.atoms[proto.out[i]], Origin: proto.origin[i]}
	}
	return c
}
