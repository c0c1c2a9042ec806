package fastframe

import (
	"context"
	"sort"
	"testing"
)

// TestHavingDecisionHelpers: DecidedAbove/DecidedBelow/Undecided read
// the interval of the aggregate the HAVING rule watched, wherever it
// sits in the SELECT list, and agree with the exact value of that same
// aggregate.
func TestHavingDecisionHelpers(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()
	for _, c := range []struct {
		sql       string
		threshold float64
		watched   int
	}{
		{"SELECT AVG(DepDelay) FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 9.3", 9.3, 0},
		// Every airline's AVG lies below 50000; seven exact SUMs lie above.
		{"SELECT SUM(DepDelay) FROM flights GROUP BY Airline HAVING SUM(DepDelay) > 50000", 50000, 0},
		// AA's mean (10.73) and median (10.05) straddle the threshold.
		{"SELECT AVG(DepDelay), MEDIAN(DepDelay) FROM flights GROUP BY Airline HAVING MEDIAN(DepDelay) > 10.4", 10.4, 1},
	} {
		res, err := eng.Query(ctx, c.sql, WithRoundRows(2000))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		ex, err := eng.QueryExact(ctx, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.AggIndex != c.watched {
			t.Errorf("%s: AggIndex = %d, want %d", c.sql, res.AggIndex, c.watched)
		}
		truth := func(key string) float64 { return ex.Group(key).Stats[c.watched] }

		above := res.DecidedAbove(c.threshold)
		below := res.DecidedBelow(c.threshold)
		undecided := res.Undecided(c.threshold)
		if len(above)+len(below)+len(undecided) != len(res.Groups) {
			t.Fatalf("%s: partition broken: %d+%d+%d != %d", c.sql,
				len(above), len(below), len(undecided), len(res.Groups))
		}
		if (res.Stopped || res.Exhausted) && len(undecided) > 0 {
			t.Errorf("%s: finished with %v undecided", c.sql, undecided)
		}
		for _, key := range above {
			if truth(key) <= c.threshold {
				t.Errorf("%s: %s decided above but exact %v", c.sql, key, truth(key))
			}
		}
		for _, key := range below {
			if truth(key) >= c.threshold {
				t.Errorf("%s: %s decided below but exact %v", c.sql, key, truth(key))
			}
		}
		// Decided sets are disjoint.
		all := append(append([]string(nil), above...), below...)
		sort.Strings(all)
		for i := 1; i < len(all); i++ {
			if all[i] == all[i-1] {
				t.Errorf("%s: key %s in both sets", c.sql, all[i])
			}
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
