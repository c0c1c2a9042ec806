package exec

import (
	"math"
	"slices"

	"fastframe/internal/ci"
	"fastframe/internal/query"
)

// answerInterval returns the interval of the group's i-th aggregate.
func answerInterval(gs *groupState, specs []aggSpec, i int) ci.Interval {
	return gs.aggs[i].answer(&specs[i])
}

// relativeError is stopping condition ③'s criterion:
// max{(g_r−ĝ)/g_r, (ĝ−g_ℓ)/g_ℓ}. The paper's formula assumes a positive
// aggregate; absolute values generalize it to negative aggregates
// (delays can be negative), and a zero denominator yields +Inf so the
// group stays active while an endpoint sits at zero.
func relativeError(iv ci.Interval) float64 {
	rel := func(num, den float64) float64 {
		if den == 0 {
			if num == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return math.Abs(num / den)
	}
	return math.Max(rel(iv.Hi-iv.Estimate, iv.Hi), rel(iv.Estimate-iv.Lo, iv.Lo))
}

// stopScratch holds the sort and sweep buffers the top-k and ordered
// activeness rules need each round. The engine owns one and passes it
// to every refreshActive call, so steady-state rounds allocate nothing
// (the buffers are sized on first use — group count is fixed per
// query).
type stopScratch struct {
	keys       []sortKey
	ivs        []ci.Interval
	overlapped []bool
}

// sortKey is one group's sort key for a look: a value computed once per
// group, and the group's position in the slice being ordered.
type sortKey struct {
	v   float64
	pos int
}

// byKey orders sort keys by value, then by position: a total order, so
// any sort gives the permutation a stable sort by value alone gives
// from position order.
func byKey(x, y sortKey) int {
	switch {
	case x.v < y.v:
		return -1
	case x.v > y.v:
		return 1
	}
	return x.pos - y.pos
}

// sortKeys fills scr.keys with one key per group, value(i, group), and
// sorts them with byKey.
func (scr *stopScratch) sortKeys(groups []*groupState, value func(int, *groupState) float64) []sortKey {
	keys := scr.keys[:0]
	for i, gs := range groups {
		keys = append(keys, sortKey{v: value(i, gs), pos: i})
	}
	slices.SortFunc(keys, byKey)
	scr.keys = keys
	return keys
}

// refreshActive recomputes the active flag of every group for the given
// stopping condition (the activeness rules of §4.3). It returns the
// number of active groups; zero means the stopping condition holds and
// the query can terminate. scr carries the reusable sort buffers; the
// non-sorting rules never touch it.
//
// Width rules (② and ③) apply to every aggregate in the SELECT list: a
// group stays active while ANY of its intervals is still too wide, so
// a multi-aggregate query keeps scanning until the whole list meets the
// precision target. Value-comparing rules (④ ⑤ ⑥) watch the single
// aggregate stop.AggIndex names — ordering groups needs one axis.
func refreshActive(groups []*groupState, stop query.Stop, specs []aggSpec, scr *stopScratch) int {
	w := stop.AggIndex // validated against the list by query.Validate
	switch stop.Kind {
	case query.StopFixedSamples:
		for _, gs := range groups {
			gs.active = gs.mv < stop.Samples
		}
	case query.StopAbsWidth:
		for _, gs := range groups {
			active := false
			for i := range specs {
				if answerInterval(gs, specs, i).Width() >= stop.Epsilon {
					active = true
					break
				}
			}
			gs.active = active
		}
	case query.StopRelWidth:
		for _, gs := range groups {
			active := false
			for i := range specs {
				if relativeError(answerInterval(gs, specs, i)) >= stop.Epsilon {
					active = true
					break
				}
			}
			gs.active = active
		}
	case query.StopThreshold:
		for _, gs := range groups {
			gs.active = answerInterval(gs, specs, w).Contains(stop.Threshold)
		}
	case query.StopTopK:
		refreshTopK(groups, stop, specs, w, scr)
	case query.StopOrdered:
		refreshOrdered(groups, specs, w, scr)
	case query.StopExhaust:
		// Every group stays active, as newGroupState made it.
	}
	n := 0
	for _, gs := range groups {
		if gs.active {
			n++
		}
	}
	return n
}

// refreshTopK implements the activeness rule of stopping condition ⑤:
// order groups by estimate; the midpoint between the K-th and (K+1)-th
// estimates splits "in" from "out"; an in-group is active while its
// bound on the out-side crosses the midpoint, and vice versa.
func refreshTopK(groups []*groupState, stop query.Stop, specs []aggSpec, w int, scr *stopScratch) {
	if len(groups) <= stop.K {
		for _, gs := range groups {
			gs.active = false // trivially separated
		}
		return
	}
	// Order by estimate, ties in ID order: descending for the largest K
	// as an ascending sort of the negated estimates.
	sign := 1.0
	if stop.Largest {
		sign = -1
	}
	keys := scr.sortKeys(groups, func(_ int, gs *groupState) float64 {
		return sign * answerInterval(gs, specs, w).Estimate
	})
	kth := answerInterval(groups[keys[stop.K-1].pos], specs, w).Estimate
	next := answerInterval(groups[keys[stop.K].pos], specs, w).Estimate
	mid := (kth + next) / 2
	for i, k := range keys {
		gs := groups[k.pos]
		iv := answerInterval(gs, specs, w)
		if stop.Largest {
			if i < stop.K {
				gs.active = iv.Lo <= mid
			} else {
				gs.active = iv.Hi >= mid
			}
		} else {
			if i < stop.K {
				gs.active = iv.Hi >= mid
			} else {
				gs.active = iv.Lo <= mid
			}
		}
	}
}

// refreshOrdered implements stopping condition ⑥: a group is active
// while its interval intersects any other group's interval.
func refreshOrdered(groups []*groupState, specs []aggSpec, w int, scr *stopScratch) {
	if cap(scr.ivs) < len(groups) {
		scr.ivs = make([]ci.Interval, len(groups))
		scr.overlapped = make([]bool, len(groups))
	}
	ivs := scr.ivs[:len(groups)]
	for i, gs := range groups {
		ivs[i] = answerInterval(gs, specs, w)
	}
	// Sort by Lo for an O(n log n) overlap sweep. The sweep's marking
	// does not depend on how equal-Lo ties are ordered.
	keys := scr.sortKeys(groups, func(i int, _ *groupState) float64 { return ivs[i].Lo })
	overlapped := scr.overlapped[:len(groups)]
	for i := range overlapped {
		overlapped[i] = false
	}
	for a := range keys {
		i := keys[a].pos
		for _, k := range keys[a+1:] {
			if k.v > ivs[i].Hi {
				break
			}
			overlapped[i] = true
			overlapped[k.pos] = true
		}
	}
	for i, gs := range groups {
		gs.active = overlapped[i]
	}
}
