package fastframe

import (
	"context"
	"reflect"
	"testing"
)

// stripTimes zeroes wall-clock fields so two Results can be compared
// byte for byte.
func stripTimes(r *Result) *Result {
	r.Duration = 0
	return r
}

// TestPublicParallelEquivalence is the public-surface counterpart of
// the exec-level equivalence property: Table.Query with parallelism 1,
// 2, 4, and 8 returns byte-identical Results for a fixed seed, across
// AVG/SUM/COUNT, GROUP BY, HAVING-style threshold stops, and
// abort-mid-scan.
func TestPublicParallelEquivalence(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	cases := []struct {
		name string
		q    QueryBuilder
		opts []Option
	}{
		{"avg-relerr", Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.05), nil},
		{"sum-having", Sum("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(2000), nil},
		{"count-abswidth", CountRows().WhereGreater("DepTime", 1500).StopAtAbsError(3000), nil},
		{"avg-grouped-topk", Avg("DepDelay").GroupBy("Origin").StopWhenTopKSeparated(3), nil},
		{"avg-maxrows", Avg("DepDelay").GroupBy("Airline"), []Option{WithMaxRows(9777)}},
		{"avg-abort", Avg("DepDelay").GroupBy("Airline"), []Option{
			WithProgress(func(p Progress) bool { return p.Round < 4 }),
		}},
	}
	for _, tc := range cases {
		for _, st := range []Strategy{ScanStrategy, ActiveSyncStrategy} {
			common := append([]Option{
				WithStrategy(st),
				WithDelta(1e-9),
				WithRoundRows(2000),
				WithSeed(99),
			}, tc.opts...)
			base, err := tab.Query(ctx, tc.q, append(common, WithParallelism(1))...)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", tc.name, st, err)
			}
			stripTimes(base)
			for _, p := range []int{2, 4, 8} {
				got, err := tab.Query(ctx, tc.q, append(common, WithParallelism(p))...)
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", tc.name, st, p, err)
				}
				if !reflect.DeepEqual(base, stripTimes(got)) {
					t.Errorf("%s/%s: P=%d differs from sequential", tc.name, st, p)
				}
			}
		}
	}
}

// TestParallelHintSQL checks that the PARALLEL n clause parses through
// Engine.Query, that it never changes answers, and that an explicit
// WithParallelism option overrides the hint.
func TestParallelHintSQL(t *testing.T) {
	tab := smallFlights(t)
	eng := NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 10%"
	common := []Option{WithStrategy(ScanStrategy), WithDelta(1e-9), WithRoundRows(2000), WithSeed(5)}

	seq, err := eng.Query(ctx, q+" PARALLEL 1", common...)
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := eng.Query(ctx, q+" PARALLEL 4", common...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTimes(seq), stripTimes(hinted)) {
		t.Error("PARALLEL 4 changed the answer")
	}
	// Explicit option wins over the hint; still identical answers.
	over, err := eng.Query(ctx, q+" PARALLEL 4", append(common, WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTimes(seq), stripTimes(over)) {
		t.Error("WithParallelism override changed the answer")
	}

	if _, err := eng.Query(ctx, q+" PARALLEL 0", common...); err == nil {
		t.Error("PARALLEL 0 accepted")
	}
	if _, err := eng.Query(ctx, q+" PARALLEL x", common...); err == nil {
		t.Error("PARALLEL x accepted")
	}
}

// TestQueryExactParallel checks that exact scans honor WithParallelism
// and that counts are identical across worker counts (sums may differ
// in the last ulp by summation order, counts never).
func TestQueryExactParallel(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	q := CountRows().Where("Origin", "ORD")
	seq, err := tab.QueryExact(ctx, q, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := tab.QueryExact(ctx, q, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Groups) != 1 || len(par.Groups) != 1 || seq.Groups[0].Count != par.Groups[0].Count {
		t.Errorf("exact counts differ across parallelism: %+v vs %+v", seq.Groups, par.Groups)
	}

	// The PARALLEL hint reaches the exact path through the Engine:
	// PARALLEL 1 pins strictly sequential summation, so two runs and
	// the builder-path equivalent must agree to the bit.
	eng := NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	const sqlQ = "SELECT SUM(DepDelay) FROM flights WHERE Origin = 'ORD' EXACT PARALLEL 1"
	e1, err := eng.QueryExact(ctx, sqlQ)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tab.QueryExact(ctx, Sum("DepDelay").Where("Origin", "ORD"), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Groups[0].Stats[0] != e2.Groups[0].Stats[0] {
		t.Errorf("PARALLEL 1 hint not honored on exact path: %v vs %v", e1.Groups[0].Stats[0], e2.Groups[0].Stats[0])
	}
	// Explicit option overrides the hint without changing counts.
	e3, err := eng.QueryExact(ctx, sqlQ, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Groups[0].Count != e3.Groups[0].Count {
		t.Errorf("exact counts differ: %d vs %d", e1.Groups[0].Count, e3.Groups[0].Count)
	}
}
