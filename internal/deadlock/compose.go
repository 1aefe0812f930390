package deadlock

import (
	"slices"

	"coherdb/internal/rel"
)

// The analysis runs on dictionary codes. Every table encodes into
// rel.SharedDict(), so a code names the same value in the controller tables
// and in V. Every distinct assignment of one analysis is interned, on its
// packed codes, to a dense atom id; each dependency table becomes atom
// arrays indexed by input composition key; and the pairwise joins feed a
// first-occurrence table over (input, output) atom pairs directly. Strings
// are decoded once per atom, to build the DepRows of the rows that survive.

// atoms interns the assignments of one analysis to dense atom ids.
type atoms struct {
	ids   map[quad]int32
	quads []quad
}

func (a *atoms) intern(q quad) int32 {
	if id, ok := a.ids[q]; ok {
		return id
	}
	id := int32(len(a.quads))
	a.ids[q] = id
	a.quads = append(a.quads, q)
	return id
}

// placed maps each of the first n atoms to its atom under placement p,
// which substitutes role codes in the source and destination. Channels are
// kept: co-located roles share the physical link, which is exactly what
// makes the dependency arise (§4.1).
func (a *atoms) placed(p Placement, n int) []int32 {
	var subst [][2]uint32
	for from, to := range p.Subst {
		subst = append(subst, [2]uint32{rel.SharedDict().Code(rel.S(from)), rel.SharedDict().Code(rel.S(to))})
	}
	role := func(c uint32) uint32 {
		for _, s := range subst {
			if c == s[0] {
				return s[1]
			}
		}
		return c
	}
	out := make([]int32, n)
	for i := range out {
		q := a.quads[i]
		q[1], q[2] = role(q[1]), role(q[2])
		out[i] = a.intern(q)
	}
	return out
}

// depRows builds the DepRows of a composed table, decoding each atom once,
// and numbers their channels: row i makes channel ends[2i] depend on
// channel ends[2i+1], and names[id] names channel id.
func (a *atoms) depRows(d *dedupTable) (rows []DepRow, ends []int32, names []string) {
	str := func(x uint32) string { return rel.SharedDict().Value(x).Str() }
	vs := make([]VAssign, len(a.quads))
	var codes []uint32 // channel id -> code
	chans := make([]int32, len(a.quads))
	for i, q := range a.quads {
		vs[i] = VAssign{M: str(q[0]), S: str(q[1]), D: str(q[2]), VC: str(q[3])}
		if chans[i] = int32(slices.Index(codes, q[3])); chans[i] < 0 {
			chans[i] = int32(len(codes))
			codes, names = append(codes, q[3]), append(names, vs[i].VC)
		}
	}
	rows, ends = make([]DepRow, len(d.in)), make([]int32, 2*len(d.in))
	for i := range rows {
		rows[i] = DepRow{In: vs[d.in[i]], Out: vs[d.out[i]], Origin: d.origins[d.origin[i]]}
		ends[2*i], ends[2*i+1] = chans[d.in[i]], chans[d.out[i]]
	}
	return rows, ends, names
}

// itable is a dependency table over atom ids whose rows share one origin.
// After index, count[k] rows have an input of composition key k, and
// first[k] lists, in table order, the first of those rows for each
// distinct output atom.
type itable struct {
	in, out []int32
	origin  string
	count   []int32
	first   [][]int32
}

// index builds the by-input-key index over the table's rows. It must run
// after every atom of the analysis is interned.
func (t *itable) index(key []int32, nkeys int) {
	t.count, t.first = make([]int32, nkeys), make([][]int32, nkeys)
	for r, a := range t.in {
		k := key[a]
		t.count[k]++
		if !slices.ContainsFunc(t.first[k], func(f int32) bool { return t.out[f] == t.out[r] }) {
			t.first[k] = append(t.first[k], int32(r))
		}
	}
}

// dedupTable accumulates the protocol dependency table over atom ids,
// keeping the first occurrence of each (input, output) pair, and counts
// the pairwise rows offered before deduplication (first round only under
// closure) and the composition rounds.
type dedupTable struct {
	in, out, origin  []int32 // origin indexes origins
	origins          []string
	key              []int32 // atom id -> composition-key id
	natoms, nkeys    int
	seen             []bool  // natoms×natoms, over (input, output)
	joined           []int32 // natoms×nkeys, over (input, output key): the last join to see it
	joins            int32
	composed, rounds int
}

// fresh adds the row (in, out), with the origin origin() returns, unless
// that pair is already in the table.
func (d *dedupTable) fresh(in, out int32, origin func() int32) {
	if i := int(in)*d.natoms + int(out); !d.seen[i] {
		d.seen[i] = true
		d.in = append(d.in, in)
		d.out = append(d.out, out)
		d.origin = append(d.origin, origin())
	}
}

// name adds an origin and returns its index.
func (d *dedupTable) name(origin string) int32 {
	d.origins = append(d.origins, origin)
	return int32(len(d.origins) - 1)
}

// join offers the table every pair (t1.in[r], t2.out[s]) where r's output
// key equals s's input key, in t1 order then t2 order — for R=(R1,R2) and
// S=(S3,S4) with R2 matching S3 the composed row is (R1,S4) — naming a
// fresh row by origin(r, s). It returns the number of pairs, repeats
// included. A t1 row whose (input atom, output key) already joined, and a
// t2 row repeating an output atom of its bucket, could only offer pairs
// already offered, so neither is visited.
func (d *dedupTable) join(t1, t2 *itable, origin func(r, s int32) int32) int {
	d.joins++
	pairs := 0
	for r, a := range t1.out {
		k, in := d.key[a], t1.in[r]
		pairs += int(t2.count[k])
		if i := int(in)*d.nkeys + int(k); d.joined[i] != d.joins {
			d.joined[i] = d.joins
			for _, s := range t2.first[k] {
				d.fresh(in, t2.out[s], func() int32 { return origin(int32(r), s) })
			}
		}
	}
	return pairs
}

// composeProtocol forms the protocol dependency table from per-placement
// sets of individual tables over the atoms of a: every individual row (set
// by set, table by table), then for every set and ordered pair (i, j) of
// its tables the pairwise composition of table i with table j,
// deduplicated on (input, output) keeping first occurrences. With closure
// it then composes the protocol table with itself until no row is added —
// the paper's abandoned first attempt.
func composeProtocol(sets [][]*itable, a *atoms, relaxed, closure bool) *dedupTable {
	// Composition keys: (s, d, v) when relaxed — the message-agnostic match
	// that captures transaction interleavings — and all of (m, s, d, v) when
	// exact.
	d := &dedupTable{natoms: len(a.quads), key: make([]int32, len(a.quads)), rounds: 1}
	keys := make(map[quad]int32, len(a.quads))
	for i, q := range a.quads {
		if relaxed {
			q[0] = rel.NullCode
		}
		if _, ok := keys[q]; !ok {
			keys[q] = int32(len(keys))
		}
		d.key[i] = keys[q]
	}
	d.nkeys = len(keys)
	d.seen, d.joined = make([]bool, d.natoms*d.natoms), make([]int32, d.natoms*d.nkeys)
	for _, set := range sets {
		for _, t := range set {
			t.index(d.key, d.nkeys)
			id := d.name(t.origin)
			for r := range t.in {
				d.fresh(t.in[r], t.out[r], func() int32 { return id })
			}
		}
	}
	for _, set := range sets {
		for _, t1 := range set {
			for _, t2 := range set {
				pair := int32(-1)
				d.composed += d.join(t1, t2, func(int32, int32) int32 {
					if pair < 0 {
						pair = d.name(t1.origin + "*" + t2.origin)
					}
					return pair
				})
			}
		}
	}

	// Closure rounds compose the table as it stood at the round's start;
	// rows appended during the round join only from the next round on.
	for closure {
		d.rounds++
		n := len(d.in)
		snap := &itable{in: d.in[:n:n], out: d.out[:n:n]}
		snap.index(d.key, d.nkeys)
		d.join(snap, snap, func(r, s int32) int32 {
			return d.name(d.origins[d.origin[r]] + "*" + d.origins[d.origin[s]])
		})
		closure = len(d.in) > n
	}
	return d
}
