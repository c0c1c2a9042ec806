package exec

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/query"
)

// avgSpecs is the one-aggregate AVG list the stopping tests run
// against; the answer dispatch reads only the kind.
var avgSpecs = []aggSpec{{kind: query.Avg}}

func mkGroup(lo, hi float64, mv int) *groupState {
	est := (lo + hi) / 2
	return &groupState{
		mv: mv,
		aggs: []aggState{{
			bestAvg:   ci.Interval{Lo: lo, Hi: hi, Estimate: est, Samples: mv},
			bestCount: ci.Interval{Lo: float64(mv), Hi: float64(mv), Estimate: float64(mv)},
			bestSum:   ci.Interval{Lo: lo * float64(mv), Hi: hi * float64(mv)},
		}},
		active: true,
	}
}

func activeFlags(groups []*groupState) []bool {
	out := make([]bool, len(groups))
	for i, g := range groups {
		out[i] = g.active
	}
	return out
}

func TestRelativeError(t *testing.T) {
	iv := ci.Interval{Lo: 8, Hi: 12, Estimate: 10}
	// max(|2/12|, |2/8|) = 0.25
	if got := relativeError(iv); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("relativeError = %v, want 0.25", got)
	}
	// Zero endpoint → +Inf.
	if got := relativeError(ci.Interval{Lo: 0, Hi: 5, Estimate: 2}); !math.IsInf(got, 1) {
		t.Errorf("zero denominator rel err = %v, want +Inf", got)
	}
	// Degenerate zero interval at zero → 0.
	if got := relativeError(ci.Interval{}); got != 0 {
		t.Errorf("zero interval rel err = %v, want 0", got)
	}
	// Negative aggregate.
	neg := ci.Interval{Lo: -12, Hi: -8, Estimate: -10}
	if got := relativeError(neg); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("negative rel err = %v, want 0.25", got)
	}
}

func TestRefreshActiveFixedSamples(t *testing.T) {
	groups := []*groupState{mkGroup(0, 1, 50), mkGroup(0, 1, 150)}
	n := refreshActive(groups, query.FixedSamples(100), avgSpecs, &stopScratch{})
	want := []bool{true, false}
	for i, w := range want {
		if groups[i].active != w {
			t.Errorf("group %d active = %v, want %v", i, groups[i].active, w)
		}
	}
	if n != 1 {
		t.Errorf("numActive = %d, want 1", n)
	}
}

func TestRefreshActiveAbsWidth(t *testing.T) {
	groups := []*groupState{mkGroup(0, 5, 10), mkGroup(0, 0.5, 10)}
	refreshActive(groups, query.AbsWidth(1), avgSpecs, &stopScratch{})
	if !groups[0].active || groups[1].active {
		t.Errorf("abs-width actives = %v", activeFlags(groups))
	}
}

func TestRefreshActiveRelWidth(t *testing.T) {
	wide := mkGroup(5, 15, 10) // rel err 0.5 at Lo
	tight := mkGroup(9.8, 10.2, 10)
	refreshActive([]*groupState{wide, tight}, query.RelWidth(0.1), avgSpecs, &stopScratch{})
	if !wide.active || tight.active {
		t.Errorf("rel-width actives: wide=%v tight=%v", wide.active, tight.active)
	}
}

func TestRefreshActiveThreshold(t *testing.T) {
	straddles := mkGroup(-1, 3, 10)
	above := mkGroup(2, 5, 10)
	below := mkGroup(-4, -1, 10)
	n := refreshActive([]*groupState{straddles, above, below}, query.Threshold(0), avgSpecs, &stopScratch{})
	if !straddles.active || above.active || below.active {
		t.Error("threshold activeness wrong")
	}
	if n != 1 {
		t.Errorf("numActive = %d", n)
	}
}

func TestRefreshActiveTopKLargest(t *testing.T) {
	// Estimates: 10, 8, 3, 1. K=2 → midpoint between 8 and 3 = 5.5.
	g1 := mkGroup(9, 11, 10) // est 10, lo 9 > 5.5 → separated
	g2 := mkGroup(5, 11, 10) // est 8, lo 5 ≤ 5.5 → active
	g3 := mkGroup(1, 5, 10)  // est 3, hi 5 < 5.5 → separated
	g4 := mkGroup(0, 2, 10)  // est 1, hi 2 < 5.5 → separated
	groups := []*groupState{g1, g2, g3, g4}
	n := refreshActive(groups, query.TopK(2), avgSpecs, &stopScratch{})
	if g1.active || !g2.active || g3.active || g4.active {
		t.Errorf("top-k actives = %v", activeFlags(groups))
	}
	if n != 1 {
		t.Errorf("numActive = %d", n)
	}
	// Bottom group whose upper bound crosses the midpoint is active.
	g3.aggs[0].bestAvg.Hi = 6
	refreshActive(groups, query.TopK(2), avgSpecs, &stopScratch{})
	if !g3.active {
		t.Error("bottom group crossing midpoint should be active")
	}
}

func TestRefreshActiveBottomK(t *testing.T) {
	// Estimates: 1, 3, 8, 10. BottomK(2) → midpoint between 3 and 8 = 5.5.
	g1 := mkGroup(0, 2, 10) // est 1, hi 2 < 5.5 → separated
	g2 := mkGroup(1, 6, 10) // est 3.5... set explicit
	g2.aggs[0].bestAvg = ci.Interval{Lo: 1, Hi: 6, Estimate: 3}
	g3 := mkGroup(7, 9, 10)  // est 8, lo 7 > 5.5 → separated
	g4 := mkGroup(9, 11, 10) // est 10 → separated
	groups := []*groupState{g1, g2, g3, g4}
	refreshActive(groups, query.BottomK(2), avgSpecs, &stopScratch{})
	if g1.active || !g2.active || g3.active || g4.active {
		t.Errorf("bottom-k actives = %v", activeFlags(groups))
	}
}

// TestRefreshTopKTiesKeepIDOrder: groups whose estimates tie across the
// K-th place split into in and out in ID order, as a stable sort of the
// groups by estimate splits them. Each tied group's interval lies above
// (or below) its estimate, so which side a group lands on decides
// whether it stays active. A randomized sweep with many ties then pins
// the rule to a stable-sort reference, scratch buffers reused.
func TestRefreshTopKTiesKeepIDOrder(t *testing.T) {
	tied := func(lo, hi, est float64) *groupState {
		g := mkGroup(lo, hi, 10)
		g.aggs[0].bestAvg.Estimate = est
		return g
	}
	// TopK(2): estimates 10, 7, 7, 7, 1 → g1 is in, g2 and g3 are out;
	// mid = 7. In stays active iff Lo ≤ 7, out iff Hi ≥ 7.
	groups := []*groupState{tied(9, 11, 10), tied(7.1, 7.3, 7), tied(7.1, 7.3, 7), tied(7.1, 7.3, 7), tied(0, 2, 1)}
	refreshActive(groups, query.TopK(2), avgSpecs, &stopScratch{})
	if want := []bool{false, false, true, true, false}; !slices.Equal(activeFlags(groups), want) {
		t.Errorf("top-2 over tied estimates: actives %v, want %v (g1 in, g2 and g3 out)", activeFlags(groups), want)
	}
	// BottomK(1): estimates 7, 7, 9 → g0 in, g1 out; mid = 7. In stays
	// active iff Hi ≥ 7, out iff Lo ≤ 7.
	groups = []*groupState{tied(6.7, 6.9, 7), tied(6.7, 6.9, 7), tied(8, 10, 9)}
	refreshActive(groups, query.BottomK(1), avgSpecs, &stopScratch{})
	if want := []bool{false, true, false}; !slices.Equal(activeFlags(groups), want) {
		t.Errorf("bottom-1 over tied estimates: actives %v, want %v (g0 in, g1 out)", activeFlags(groups), want)
	}

	// reference is the rule over a stable sort by estimate alone.
	reference := func(groups []*groupState, stop query.Stop) []bool {
		order := slices.Clone(groups)
		est := func(g *groupState) float64 { return g.aggs[0].bestAvg.Estimate }
		sort.SliceStable(order, func(i, j int) bool {
			if stop.Largest {
				return est(order[i]) > est(order[j])
			}
			return est(order[i]) < est(order[j])
		})
		mid := (est(order[stop.K-1]) + est(order[stop.K])) / 2
		active := map[*groupState]bool{}
		for i, g := range order {
			iv := g.aggs[0].bestAvg
			in := i < stop.K
			active[g] = in == stop.Largest && iv.Lo <= mid || in != stop.Largest && iv.Hi >= mid
		}
		out := make([]bool, len(groups))
		for i, g := range groups {
			out[i] = active[g]
		}
		return out
	}
	rng := rand.New(rand.NewPCG(3, 4))
	scr := &stopScratch{}
	for trial := 0; trial < 500; trial++ {
		groups := make([]*groupState, 2+rng.IntN(30))
		for i := range groups {
			est := float64(rng.IntN(4)) // few distinct values: many ties
			groups[i] = tied(est-1+rng.Float64()*1.5, est-0.5+rng.Float64()*1.5, est)
		}
		stop := query.TopK(1 + rng.IntN(len(groups)-1))
		if rng.IntN(2) == 0 {
			stop = query.BottomK(stop.K)
		}
		want := reference(groups, stop)
		refreshActive(groups, stop, avgSpecs, scr)
		if got := activeFlags(groups); !slices.Equal(got, want) {
			t.Fatalf("trial %d, %+v over %d groups: actives %v, stable-sort reference %v", trial, stop, len(groups), got, want)
		}
	}
}

func TestRefreshActiveTopKFewGroups(t *testing.T) {
	groups := []*groupState{mkGroup(0, 10, 5), mkGroup(0, 10, 5)}
	n := refreshActive(groups, query.TopK(2), avgSpecs, &stopScratch{})
	if n != 0 {
		t.Errorf("K >= #groups should be trivially separated; numActive = %d", n)
	}
}

func TestRefreshActiveOrdered(t *testing.T) {
	a := mkGroup(0, 2, 5)
	b := mkGroup(1, 3, 5)   // overlaps a
	c := mkGroup(10, 12, 5) // isolated
	n := refreshActive([]*groupState{a, b, c}, query.Ordered(), avgSpecs, &stopScratch{})
	if !a.active || !b.active || c.active {
		t.Errorf("ordered actives = %v", activeFlags([]*groupState{a, b, c}))
	}
	if n != 2 {
		t.Errorf("numActive = %d", n)
	}
}

func TestRefreshActiveExhaust(t *testing.T) {
	g := mkGroup(0, 1, 5)
	n := refreshActive([]*groupState{g}, query.Exhaust(), avgSpecs, &stopScratch{})
	if !g.active || n != 1 {
		t.Error("exhaust activeness wrong")
	}
}

func TestAnswerIntervalSelectsAggregate(t *testing.T) {
	g := mkGroup(2, 4, 7)
	if answerInterval(g, avgSpecs, 0) != g.aggs[0].bestAvg {
		t.Error("Avg selects wrong interval")
	}
	if answerInterval(g, []aggSpec{{kind: query.Count}}, 0) != g.aggs[0].bestCount {
		t.Error("Count selects wrong interval")
	}
	if answerInterval(g, []aggSpec{{kind: query.Sum}}, 0) != g.aggs[0].bestSum {
		t.Error("Sum selects wrong interval")
	}
}
