package deadlock

import (
	"fmt"
	"strings"

	"coherdb/internal/rel"
)

// VAssign is one channel assignment occurrence in a dependency: message,
// source, destination and the channel it rides.
type VAssign struct {
	M, S, D, VC string
}

func (a VAssign) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s)", a.M, a.S, a.D, a.VC)
}

// DepRow is one row of a (controller / pairwise / protocol) dependency
// table: processing the input assignment requires the output assignment's
// channel — the input channel depends on the output channel (§4.1).
type DepRow struct {
	In, Out VAssign
	// Origin records provenance: "D", "M", ... for controller rows;
	// "T1*T2@placement" for composed rows.
	Origin string
}

func (d DepRow) String() string {
	return fmt.Sprintf("%s -> %s [%s]", d.In, d.Out, d.Origin)
}

// quad is one channel assignment occurrence in dictionary codes: message,
// source, destination and channel.
type quad [4]uint32

// group is one message column group of a controller table: the column
// indexes of its message, source and destination.
type group struct{ m, s, d int }

// msgGroups discovers the message column groups of a controller table by
// the src/dest convention: a column g is a message group iff columns
// g+"src" and g+"dest" exist. The input group is "inmsg"; all others are
// output groups.
func msgGroups(t *rel.Table) (in group, outs []group, err error) {
	in.m = -1
	for j, c := range t.ColumnsRef() {
		if strings.HasSuffix(c, "src") || strings.HasSuffix(c, "dest") || strings.HasSuffix(c, "rsrc") {
			continue
		}
		g := group{m: j, s: t.ColIndex(c + "src"), d: t.ColIndex(c + "dest")}
		if g.s < 0 || g.d < 0 {
			continue
		}
		if c == "inmsg" {
			in = g
		} else {
			outs = append(outs, g)
		}
	}
	if in.m < 0 {
		return in, nil, fmt.Errorf("%w: table %q has no inmsg group", ErrBadController, t.Name())
	}
	if len(outs) == 0 {
		return in, nil, fmt.Errorf("%w: table %q has no output message groups", ErrBadController, t.Name())
	}
	return in, outs, nil
}

// controllerDeps builds the individual controller dependency table of one
// controller (§4.1) in dictionary codes: for every row and every non-NULL
// outgoing message, if both the incoming and outgoing (message, source,
// destination) hops are assigned channels in V, a dependency row is
// produced. One entry is added per outgoing message.
func controllerDeps(t *rel.Table, v *Assignment) ([][2]quad, error) {
	in, outs, err := msgGroups(t)
	if err != nil {
		return nil, err
	}
	cols := func(g group) [3][]uint32 { return [3][]uint32{t.ColCodes(g.m), t.ColCodes(g.s), t.ColCodes(g.d)} }
	inCols := cols(in)
	outCols := make([][3][]uint32, len(outs))
	for k, g := range outs {
		outCols[k] = cols(g)
	}
	var rows [][2]quad
	for i := 0; i < t.NumRows(); i++ {
		inA, ok := v.at(inCols, i)
		if !ok {
			continue // input not on a tracked channel
		}
		for _, c := range outCols {
			if outA, ok := v.at(c, i); ok {
				rows = append(rows, [2]quad{inA, outA})
			}
		}
	}
	return rows, nil
}

// at returns the assignment of the hop in row i of a group's columns, and
// whether the hop rides a tracked channel: a NULL message sends nothing,
// and a hop V does not assign travels over a dedicated or internal path.
func (a *Assignment) at(cols [3][]uint32, i int) (quad, bool) {
	m := cols[0][i]
	if m == rel.NullCode {
		return quad{}, false
	}
	q := quad{m, cols[1][i], cols[2][i]}
	q[3] = a.vc[[3]uint32(q[:3])]
	return q, q[3] != rel.NullCode
}
