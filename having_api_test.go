package fastframe

import (
	"context"
	"sort"
	"testing"
)

func TestHavingDecisionHelpers(t *testing.T) {
	tab := smallFlights(t)
	const threshold = 9.3
	q := Avg("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(threshold)
	res, err := tab.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := tab.QueryExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	above := res.DecidedAbove(threshold)
	below := res.DecidedBelow(threshold)
	undecided := res.Undecided(threshold)
	if len(above)+len(below)+len(undecided) != len(res.Groups) {
		t.Fatalf("partition broken: %d+%d+%d != %d",
			len(above), len(below), len(undecided), len(res.Groups))
	}
	for _, key := range above {
		if ex.Group(key).Avg <= threshold {
			t.Errorf("%s decided above but exact %v", key, ex.Group(key).Avg)
		}
	}
	for _, key := range below {
		if ex.Group(key).Avg >= threshold {
			t.Errorf("%s decided below but exact %v", key, ex.Group(key).Avg)
		}
	}
	// Decided sets are disjoint and sorted input order preserved.
	all := append(append([]string(nil), above...), below...)
	sort.Strings(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Errorf("key %s in both sets", all[i])
		}
	}
}

func TestSessionDelta(t *testing.T) {
	if got := SessionDelta(1e-12, 1); got != 1e-12 {
		t.Errorf("q=1: %v", got)
	}
	if got := SessionDelta(1e-12, 0); got != 1e-12 {
		t.Errorf("q=0: %v", got)
	}
	if got := SessionDelta(1e-12, 4); got != 2.5e-13 {
		t.Errorf("q=4: %v", got)
	}
}
