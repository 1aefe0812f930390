package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"coherdb/internal/obs"
)

// The harness traces from outside: each call it makes into a layer is a
// span named "<module>.<call>", child of one root span per operation. No
// tracer is ever passed into the program, so a traced run executes exactly
// the code an untraced run does.

// spanStats summarizes one traced phase.
type spanStats struct {
	// dur holds every span's duration, by span name.
	dur map[string]durations
	// self sums each name's self time: the span's duration minus the part
	// of it that its children cover.
	self map[string]time.Duration
	// rootSelf sums the self time of the root spans: harness glue.
	rootSelf time.Duration
}

func analyzeSpans(spans []obs.Span) spanStats {
	st := spanStats{dur: map[string]durations{}, self: map[string]time.Duration{}}
	if len(spans) == 0 {
		return st
	}
	// Link each span to its children through index lists rather than maps:
	// a traced serve run records over a million spans. A collector numbers
	// spans consecutively, so a span's position is found by its ID.
	minID, maxID := spans[0].ID, spans[0].ID
	for i := range spans {
		minID, maxID = min(minID, spans[i].ID), max(maxID, spans[i].ID)
	}
	pos := make([]int32, maxID-minID+1)
	for i := range pos {
		pos[i] = -1
	}
	for i := range spans {
		pos[spans[i].ID-minID] = int32(i)
	}
	firstChild := make([]int32, len(spans))
	nextSibling := make([]int32, len(spans))
	for i := range firstChild {
		firstChild[i], nextSibling[i] = -1, -1
	}
	for i := range spans {
		p := spans[i].ParentID
		if p < minID || p > maxID || pos[p-minID] < 0 {
			continue
		}
		nextSibling[i] = firstChild[pos[p-minID]]
		firstChild[pos[p-minID]] = int32(i)
	}
	var kids []*obs.Span
	for i := range spans {
		s := &spans[i]
		kids = kids[:0]
		for k := firstChild[i]; k >= 0; k = nextSibling[k] {
			kids = append(kids, &spans[k])
		}
		d := s.End.Sub(s.Start)
		self := d - covered(s, kids)
		st.dur[s.Name] = append(st.dur[s.Name], d)
		st.self[s.Name] += self
		if s.ParentID == 0 {
			st.rootSelf += self
		}
	}
	return st
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent *obs.Span, kids []*obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if !end.After(start) {
			continue
		}
		if curEnd.IsZero() || start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = start, end
		} else if end.After(curEnd) {
			curEnd = end
		}
	}
	return total + curEnd.Sub(curStart)
}

// writeSelfTimes prints each span name's self time, largest first.
func writeSelfTimes(w io.Writer, st spanStats) {
	names := make([]string, 0, len(st.self))
	var all time.Duration
	for n, d := range st.self {
		names = append(names, n)
		all += d
	}
	sort.Slice(names, func(i, j int) bool {
		if st.self[names[i]] != st.self[names[j]] {
			return st.self[names[i]] > st.self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "  %-30s %9s %12s %12s %6s\n", "span", "count", "self_ms", "self_us/call", "share")
	for _, n := range names {
		d := st.self[n]
		calls := len(st.dur[n])
		share := 0.0
		if all > 0 {
			share = 100 * float64(d) / float64(all)
		}
		fmt.Fprintf(w, "  %-30s %9d %12.3f %12.2f %5.1f%%\n", n, calls,
			float64(d)/float64(time.Millisecond), float64(d)/float64(calls)/float64(time.Microsecond), share)
	}
}
