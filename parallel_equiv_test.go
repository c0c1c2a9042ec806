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
		for _, st := range []Strategy{ScanStrategy, ActiveStrategy} {
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

// TestQueryExactParallel checks that a PARALLEL hint on an EXACT
// statement still parses, that QueryExact accepts WithParallelism, and
// that neither changes the answer by a bit: an exact run scans with one
// worker whatever it is told. The hint still reaches the approximate run
// of the same statement, which exhausts onto the same values.
func TestQueryExactParallel(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	eng := NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	const sqlQ = "SELECT SUM(DepDelay), COUNT(*) FROM flights WHERE Origin = 'ORD' GROUP BY Airline EXACT"
	builder := Select(Sum("DepDelay"), CountRows()).Where("Origin", "ORD").GroupBy("Airline")
	plain, err := eng.QueryExact(ctx, sqlQ)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func() (*ExactResult, error){
		"PARALLEL 1":                func() (*ExactResult, error) { return eng.QueryExact(ctx, sqlQ+" PARALLEL 1") },
		"PARALLEL 8":                func() (*ExactResult, error) { return eng.QueryExact(ctx, sqlQ+" PARALLEL 8") },
		"WithParallelism(8)":        func() (*ExactResult, error) { return eng.QueryExact(ctx, sqlQ, WithParallelism(8)) },
		"Table, WithParallelism(8)": func() (*ExactResult, error) { return tab.QueryExact(ctx, builder, WithParallelism(8)) },
	}
	for name, run := range variants {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Groups, plain.Groups) {
			t.Errorf("%s changed the exact answer:\n got %+v\nwant %+v", name, got.Groups, plain.Groups)
		}
	}
	if _, err := eng.QueryExact(ctx, sqlQ+" PARALLEL 0"); err == nil {
		t.Error("PARALLEL 0 accepted on an EXACT statement")
	}

	approx, err := eng.Query(ctx, sqlQ+" PARALLEL 4", WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Exhausted || len(approx.Groups) != len(plain.Groups) {
		t.Fatalf("EXACT PARALLEL 4 through Query: exhausted=%v, %d groups for %d", approx.Exhausted, len(approx.Groups), len(plain.Groups))
	}
	for i, g := range approx.Groups {
		want := plain.Groups[i]
		if g.Key != want.Key || g.Samples != want.Count || !within(g.Answers[0].Estimate, want.Stats[0]) {
			t.Errorf("group %q: %d rows, SUM %v; QueryExact %q %d rows, %v", g.Key, g.Samples, g.Answers[0].Estimate, want.Key, want.Count, want.Stats[0])
		}
	}
}
