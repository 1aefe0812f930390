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

// msgGroups discovers the message column groups of a controller table by
// the src/dest convention: a column g is a message group iff columns
// g+"src" and g+"dest" exist. The input group is "inmsg"; all others are
// output groups.
func msgGroups(t *rel.Table) (in string, outs []string, err error) {
	for _, c := range t.Columns() {
		if strings.HasSuffix(c, "src") || strings.HasSuffix(c, "dest") || strings.HasSuffix(c, "rsrc") {
			continue
		}
		if t.HasColumn(c+"src") && t.HasColumn(c+"dest") {
			if c == "inmsg" {
				in = c
			} else {
				outs = append(outs, c)
			}
		}
	}
	if in == "" {
		return "", nil, fmt.Errorf("%w: table %q has no inmsg group", ErrBadController, t.Name())
	}
	if len(outs) == 0 {
		return "", nil, fmt.Errorf("%w: table %q has no output message groups", ErrBadController, t.Name())
	}
	return in, outs, nil
}

// ControllerDeps builds the individual controller dependency table of one
// controller (§4.1): for every row and every non-NULL outgoing message, if
// both the incoming and outgoing (message, source, destination) triples are
// assigned channels in V, a dependency row is produced. One entry is added
// per outgoing message.
func ControllerDeps(t *rel.Table, v *Assignment) ([]DepRow, error) {
	in, outs, err := msgGroups(t)
	if err != nil {
		return nil, err
	}
	var rows []DepRow
	for i := 0; i < t.NumRows(); i++ {
		im := t.Get(i, in)
		if im.IsNull() {
			continue
		}
		inA := VAssign{M: im.Str(), S: t.Get(i, in+"src").Str(), D: t.Get(i, in+"dest").Str()}
		inA.VC = v.Channel(inA.M, inA.S, inA.D)
		if inA.VC == "" {
			continue // input not on a tracked channel
		}
		for _, g := range outs {
			om := t.Get(i, g)
			if om.IsNull() {
				continue
			}
			outA := VAssign{M: om.Str(), S: t.Get(i, g+"src").Str(), D: t.Get(i, g+"dest").Str()}
			outA.VC = v.Channel(outA.M, outA.S, outA.D)
			if outA.VC == "" {
				continue // output over a dedicated/internal path
			}
			rows = append(rows, DepRow{In: inA, Out: outA, Origin: t.Name()})
		}
	}
	return rows, nil
}

// applyPlacement substitutes quad-placement role identifications in a
// dependency row. Channels are kept: co-located roles share the physical
// link, which is exactly what makes the dependency arise (§4.1).
func applyPlacement(r DepRow, p Placement) DepRow {
	r.In.S, r.In.D = p.Apply(r.In.S), p.Apply(r.In.D)
	r.Out.S, r.Out.D = p.Apply(r.Out.S), p.Apply(r.Out.D)
	if p.Name != "L!=H!=R" {
		r.Origin = r.Origin + "@" + p.Name
	}
	return r
}
