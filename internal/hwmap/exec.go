package hwmap

import (
	"errors"
	"fmt"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// Controller executes the nine implementation tables as the Figure 5
// micro-architecture does: the incoming message is routed to the request or
// the response controller, each of whose output tables is consulted with
// the same input key, and the per-table outputs are combined. It is the
// software twin of the generated hardware and the basis of the
// table-vs-implementation equivalence check.
//
// Each table is matched the way the hardware does: a TCAM-style ternary
// match (rel.Matcher) in which a NULL input cell is a dontcare (§3: the
// NULL value "helps in optimal mapping of tables to hardware") and the
// most specific matching row wins. Keys and outputs are dictionary codes.
type Controller struct {
	dict     *rel.Dict
	request  []implTable
	response []implTable
	// pos maps each output column to its slot in an output tuple.
	pos map[string]int
}

// implTable is one implementation table compiled for lookup: out holds
// its output columns' code vectors and slot their output-tuple slots.
type implTable struct {
	match *rel.Matcher
	out   [][]uint32
	slot  []int
}

// NewController builds the executable controller from a mapping.
func NewController(m *Mapping) (*Controller, error) {
	c := &Controller{dict: rel.SharedDict(), pos: map[string]int{}}
	for i, t := range m.Tables {
		match, err := rel.NewMatcher(t, edInputCols)
		if errors.Is(err, rel.ErrNondeterministic) {
			return nil, fmt.Errorf("hwmap: table %q is nondeterministic for one input", t.Name())
		}
		if err != nil {
			return nil, fmt.Errorf("hwmap: implementation table %q: %w", t.Name(), err)
		}
		it := implTable{match: match}
		for j, col := range t.ColumnsRef()[len(edInputCols):] {
			p, ok := c.pos[col]
			if !ok {
				p = len(c.pos)
				c.pos[col] = p
			}
			it.out = append(it.out, t.ColCodes(len(edInputCols)+j))
			it.slot = append(it.slot, p)
		}
		if i < len(requestOutputGroups) {
			c.request = append(c.request, it)
		} else {
			c.response = append(c.response, it)
		}
	}
	return c, nil
}

// InputColumns returns ED's input columns: the order of a lookup key.
func InputColumns() []string { return append([]string(nil), edInputCols...) }

// Lookup routes one input combination through the split controller. key
// holds one code per ED input column, in InputColumns order. The combined
// outputs come back as one code per output column, NULL where no matched
// table produces the column; read them with Output. The boolean reports
// whether any table matched.
func (c *Controller) Lookup(key []uint32) ([]uint32, bool) {
	tables := c.response
	if key[0] != rel.NoCode && protocol.IsRequest(c.dict.Value(key[0]).Str()) {
		tables = c.request
	}
	out := make([]uint32, len(c.pos))
	return out, c.lookup(tables, key, out)
}

// lookup matches key against tables and writes their outputs into out.
func (c *Controller) lookup(tables []implTable, key, out []uint32) bool {
	clear(out)
	matched := false
	for _, t := range tables {
		r := t.match.Match(key)
		if r < 0 {
			continue
		}
		matched = true
		for i, col := range t.out {
			out[t.slot[i]] = col[r]
		}
	}
	return matched
}

// Output decodes column col of a Lookup result; a column no table
// produces reads as NULL.
func (c *Controller) Output(out []uint32, col string) rel.Value {
	if p, ok := c.pos[col]; ok {
		return c.dict.Value(out[p])
	}
	return rel.Null()
}

// VerifyEquivalence proves the split controller behaves exactly like the
// extended table: for every ED row, routing its inputs through the nine
// implementation tables reproduces every output column. This is the §5
// guarantee — "the debugged tables must be mapped to an implementation
// while preserving all the properties established by static analyses" —
// checked executably rather than by reconstruction alone. ED's input code
// columns stream straight into the matchers; under the shared dictionary
// code equality is Value.Equal, so values are decoded only to report a
// failure.
func (m *Mapping) VerifyEquivalence() error {
	ctrl, err := NewController(m)
	if err != nil {
		return err
	}
	ed := m.Extended
	in := make([][]uint32, len(edInputCols))
	for k, col := range edInputCols {
		in[k] = ed.ColCodes(ed.ColIndex(col))
	}
	type outCheck struct {
		col  string
		want []uint32
		slot int // -1 when no table produces the column
	}
	var checks []outCheck
	for j, col := range ed.ColumnsRef() {
		if !isOutputCol(col) && col != ColFdback {
			continue
		}
		slot, ok := ctrl.pos[col]
		if !ok {
			slot = -1
		}
		checks = append(checks, outCheck{col, ed.ColCodes(j), slot})
	}
	key := make([]uint32, len(edInputCols))
	out := make([]uint32, len(ctrl.pos))
	isReq := map[uint32]bool{}
	for i := 0; i < ed.NumRows(); i++ {
		for k, col := range in {
			key[k] = col[i]
		}
		req, seen := isReq[key[0]]
		if !seen {
			req = protocol.IsRequest(ed.Dict().Value(key[0]).Str())
			isReq[key[0]] = req
		}
		tables := ctrl.response
		if req {
			tables = ctrl.request
		}
		if !ctrl.lookup(tables, key, out) {
			return fmt.Errorf("%w: row %d has no implementation behaviour", ErrBroken, i)
		}
		for _, ch := range checks {
			have := rel.NullCode
			if ch.slot >= 0 {
				have = out[ch.slot]
			}
			if want := ch.want[i]; have != want {
				return fmt.Errorf("%w: row %d column %s: implementation says %v, table says %v",
					ErrBroken, i, ch.col, ed.Dict().Value(have), ed.Dict().Value(want))
			}
		}
	}
	return nil
}
