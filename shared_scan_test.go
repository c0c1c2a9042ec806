package fastframe

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// sharedCommon is the fixed configuration the public shared-scan
// equivalence suite runs under.
func sharedCommon(extra ...Option) []Option {
	return append([]Option{
		WithStrategy(ScanStrategy),
		WithDelta(1e-9),
		WithRoundRows(2000),
		WithSeed(99),
	}, extra...)
}

// TestPublicSharedScanEquivalence is the public-surface counterpart of
// the exec-level shared-scan property: a query routed through
// WithSharedScan returns a byte-identical Result and Progress stream to
// the same query run solo, across query shapes and strategies — and
// records the start block a solo WithStartBlock run reproduces it from.
func TestPublicSharedScanEquivalence(t *testing.T) {
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
	for _, st := range []Strategy{ScanStrategy, ActiveStrategy} {
		// Fresh table per configuration: each driver starts idle, so the
		// shared run anchors at the seed-derived block and must equal the
		// solo run bit for bit.
		tab := smallFlights(t)
		for _, tc := range cases {
			common := append(sharedCommon(tc.opts...), WithStrategy(st))
			solo, err := tab.Query(ctx, tc.q, common...)
			if err != nil {
				t.Fatalf("%s/%s solo: %v", tc.name, st, err)
			}
			shared, err := tab.Query(ctx, tc.q, append(common, WithSharedScan())...)
			if err != nil {
				t.Fatalf("%s/%s shared: %v", tc.name, st, err)
			}
			if !reflect.DeepEqual(stripTimes(solo), stripTimes(shared)) {
				t.Errorf("%s/%s: shared differs from solo\nsolo:   %+v\nshared: %+v",
					tc.name, st, solo, shared)
			}
			// The recorded start block replays the run byte for byte.
			replay, err := tab.Query(ctx, tc.q, append(common, WithStartBlock(shared.StartBlock))...)
			if err != nil {
				t.Fatalf("%s/%s replay: %v", tc.name, st, err)
			}
			if !reflect.DeepEqual(stripTimes(shared), stripTimes(replay)) {
				t.Errorf("%s/%s: WithStartBlock(%d) replay differs", tc.name, st, shared.StartBlock)
			}
		}
	}
}

// TestSharedScanStreamEquivalence drains a Rows cursor under
// WithSharedScan and compares every per-round snapshot and the final
// Result against the solo stream.
func TestSharedScanStreamEquivalence(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	q := Avg("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(2000)

	drain := func(shared bool) ([]Progress, *Result) {
		opts := sharedCommon()
		if shared {
			opts = append(opts, WithSharedScan())
		}
		rows, err := tab.Stream(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var snaps []Progress
		for rows.Next() {
			snaps = append(snaps, rows.Snapshot())
		}
		res, err := rows.Final()
		if err != nil {
			t.Fatal(err)
		}
		return snaps, stripTimes(res)
	}
	soloSnaps, soloRes := drain(false)
	sharedSnaps, sharedRes := drain(true)
	if !reflect.DeepEqual(soloRes, sharedRes) {
		t.Errorf("stream final result differs:\nsolo:   %+v\nshared: %+v", soloRes, sharedRes)
	}
	if !reflect.DeepEqual(soloSnaps, sharedSnaps) {
		t.Errorf("stream snapshots differ (%d vs %d rounds)", len(soloSnaps), len(sharedSnaps))
	}
}

// TestSharedScanConcurrentSQL runs concurrent SQL queries through one
// Engine with shared scans and checks each against a WithStartBlock
// solo replay, plus the session accounting: δ accounting must be
// byte-identical to what the same queries would have charged solo.
func TestSharedScanConcurrentSQL(t *testing.T) {
	tab := smallFlights(t)
	eng := NewEngine(WithSessionBudget(1e-6, 100))
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%",
		"SELECT SUM(DepDelay) FROM flights GROUP BY Airline HAVING SUM(DepDelay) > 2000",
		"SELECT COUNT(*) FROM flights WHERE DepTime > 1500 WITHIN ABS 3000",
		"SELECT AVG(DepDelay) FROM flights GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 3",
	}

	type outcome struct {
		res *Result
		err error
	}
	results := make([]outcome, len(queries))
	var wg sync.WaitGroup
	for i, sqlText := range queries {
		wg.Add(1)
		go func(i int, sqlText string) {
			defer wg.Done()
			res, err := eng.Query(ctx, sqlText, sharedCommon(WithSharedScan())...)
			results[i] = outcome{res, err}
		}(i, sqlText)
	}
	wg.Wait()

	for i, sqlText := range queries {
		if results[i].err != nil {
			t.Fatalf("%s: %v", sqlText, results[i].err)
		}
		replay, err := eng.Query(ctx, sqlText, sharedCommon(WithStartBlock(results[i].res.StartBlock))...)
		if err != nil {
			t.Fatalf("%s replay: %v", sqlText, err)
		}
		if !reflect.DeepEqual(stripTimes(results[i].res), stripTimes(replay)) {
			t.Errorf("%s: concurrent shared run differs from solo replay at block %d",
				sqlText, results[i].res.StartBlock)
		}
	}

	// δ accounting: every query above charged exactly the δ a solo run
	// charges (the WithDelta(1e-9) override in sharedCommon) — the
	// replays doubled the count, so the union bound is 2·len(queries)·δ.
	if got, want := eng.SessionError(), float64(2*len(queries))*1e-9; got != want {
		t.Errorf("SessionError = %g, want %g", got, want)
	}
	if got := eng.QueriesRun(); got != 2*len(queries) {
		t.Errorf("QueriesRun = %d, want %d", got, 2*len(queries))
	}

	// Sharing counters: every shared query is visible, physical reads
	// are bounded by demanded reads, and the Engine aggregate matches
	// the table's.
	st := tab.SharedScanStats()
	if st.QueriesServed != int64(len(queries)) {
		t.Errorf("QueriesServed = %d, want %d", st.QueriesServed, len(queries))
	}
	if st.BlocksFetched <= 0 || st.BlocksDemanded < st.BlocksFetched {
		t.Errorf("implausible sharing counters: %+v", st)
	}
	if es := eng.SharedScanStats(); es != st {
		t.Errorf("engine aggregate %+v differs from table stats %+v", es, st)
	}
}
