package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fastframe"
)

// truth is the exact answer of one tail-free statement: per group, one
// value per SELECT-list aggregate.
type truth struct {
	groups map[string][]float64
}

// groundTruth evaluates every distinct (exactSQL, exactArgs) of the
// request list with QueryExact against the in-memory table.
func groundTruth(ctx context.Context, tab *fastframe.Table, reqs []request) (map[string]*truth, error) {
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		return nil, err
	}
	out := make(map[string]*truth)
	for i := range reqs {
		rq := &reqs[i]
		if _, done := out[rq.truthKey]; done {
			continue
		}
		stmt, err := eng.Prepare(rq.exactSQL)
		if err != nil {
			return nil, fmt.Errorf("ground truth %q: %w", rq.exactSQL, err)
		}
		res, err := stmt.QueryExact(ctx, rq.exactArg...)
		if err != nil {
			return nil, fmt.Errorf("ground truth %q %v: %w", rq.exactSQL, rq.exactArg, err)
		}
		t := &truth{groups: make(map[string][]float64, len(res.Groups))}
		for _, g := range res.Groups {
			t.groups[g.Key] = g.Stats
		}
		out[rq.truthKey] = t
	}
	return out, nil
}

// contains reports whether [lo, hi] holds v, allowing the rounding of a
// sum taken in a different order: an exhausted scan returns a point
// interval that differs from the exact value in its last bits.
func contains(lo, hi, v float64) bool {
	tol := 1e-9 * math.Max(1, math.Abs(v))
	return v >= lo-tol && v <= hi+tol
}

// verdict is the outcome of checking one result against the truth.
type verdict struct {
	checked int // intervals and decisions checked
	missed  int // of those, how many disagree with the exact answer
}

// checkResult compares every group interval of every SELECT-list
// aggregate with the exact value and, when the server reports that the
// stopping rule was met, the rule's verdict with the exact ordering. A
// malformed result (unknown group, wrong arity) is an error.
func checkResult(rq *request, res *wireResult, t *truth) (verdict, error) {
	var v verdict
	for _, g := range res.Groups {
		exact, ok := t.groups[g.Key]
		if !ok {
			return v, fmt.Errorf("request %d: group %q is not in the exact answer", rq.index, g.Key)
		}
		if len(g.Answers) != len(exact) || len(g.Answers) != len(res.Aggs) {
			return v, fmt.Errorf("request %d: group %q has %d answers for %d aggregates", rq.index, g.Key, len(g.Answers), len(exact))
		}
		for i, iv := range g.Answers {
			v.checked++
			if !contains(iv.Lo, iv.Hi, exact[i]) {
				v.missed++
			}
		}
	}
	if !res.Stopped || rq.decision == decideNone || len(res.Groups) == 0 {
		return v, nil
	}
	v.checked++
	if !decisionHolds(rq, res, t) {
		v.missed++
	}
	return v, nil
}

// decisionHolds checks a met stopping rule against the exact answer:
// HAVING puts every group on the exact side of the threshold, and
// top-/bottom-k names exactly the k extreme groups.
func decisionHolds(rq *request, res *wireResult, t *truth) bool {
	if rq.decision == decideHaving {
		for _, g := range res.Groups {
			if (g.Answers[0].Estimate > rq.v) != (t.groups[g.Key][0] > rq.v) {
				return false
			}
		}
		return true
	}
	sign := 1.0 // rank descending for top-k, ascending for bottom-k
	if rq.decision == decideBottomK {
		sign = -1
	}
	type kv struct {
		key string
		val float64
	}
	top := func(all []kv) map[string]bool {
		sort.Slice(all, func(i, j int) bool { return sign*all[i].val > sign*all[j].val })
		set := make(map[string]bool, rq.k)
		for _, e := range all[:min(rq.k, len(all))] {
			set[e.key] = true
		}
		return set
	}
	var got, want []kv
	for _, g := range res.Groups {
		got = append(got, kv{g.Key, g.Answers[0].Estimate})
	}
	for key, stats := range t.groups {
		want = append(want, kv{key, stats[0]})
	}
	gotSet, wantSet := top(got), top(want)
	for key := range wantSet {
		if !gotSet[key] {
			return false
		}
	}
	return len(gotSet) == len(wantSet)
}
