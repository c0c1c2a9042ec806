package fastframe

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeTempTable persists tab to a temp file in the current (v3)
// format and returns the path.
func writeTempTable(t testing.TB, tab *Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.ff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// closeOutOfCore ends an out-of-core test: it is the pin-leak guard — by
// now every query has returned, whichever way it ended, so no extent may
// still be pinned — and Close itself must agree, handing every extent
// back to the pool.
func closeOutOfCore(t testing.TB, ooc *Table, pool *BufferPool) {
	t.Helper()
	if n := pool.Stats().PinnedFrames; n != 0 {
		t.Errorf("%d extents still pinned after the last query returned", n)
	}
	if err := ooc.Close(); err != nil {
		t.Errorf("closing the out-of-core table: %v", err)
	}
	if st := pool.Stats(); st.UsedBytes != 0 {
		t.Errorf("the closed table left %d bytes charged to the pool", st.UsedBytes)
	}
	pool.Close()
}

// TestOutOfCoreEquivalence is the paging-invariance property: a query
// over a disk-backed table returns a byte-identical Result to the same
// query over the fully resident table — across query shapes, scan
// strategies, and pool budgets down to a sliver of the
// table (constant mid-scan eviction). The answer may never depend on
// what happens to be cached.
func TestOutOfCoreEquivalence(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	ctx := context.Background()
	cases := []struct {
		name string
		q    QueryBuilder
	}{
		{"avg-relerr", Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.05)},
		{"sum-having", Sum("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(2000)},
		{"count-abswidth", CountRows().WhereGreater("DepTime", 1500).StopAtAbsError(3000)},
		{"avg-grouped-topk", Avg("DepDelay").GroupBy("Origin").StopWhenTopKSeparated(3)},
		// Multi-aggregate GROUP BY: the sketch states (ECDF, Welford,
		// distinct table) must also be paging-invariant — under the
		// 16 KiB budget every round of this case evicts mid-scan.
		{"multiagg-grouped",
			Select(Avg("DepDelay"), Median("DepDelay"), Var("DepDelay"), CountDistinct("Origin")).
				GroupBy("Airline").StopAtAbsError(5)},
	}

	type key struct {
		st   Strategy
		name string
	}
	resident := map[key]*Result{}
	for _, st := range []Strategy{ScanStrategy, ActiveStrategy} {
		for _, tc := range cases {
			res, err := tab.Query(ctx, tc.q, fixedOpts(WithStrategy(st))...)
			if err != nil {
				t.Fatalf("%s/%s resident: %v", tc.name, st, err)
			}
			resident[key{st, tc.name}] = stripTimes(res)
		}
	}

	// 16 KiB does not hold one extent (64 blocks of 25 rows, as read and
	// decoded) of a ~1.7 MB decoded table: every extent a scan leaves is
	// evicted. 4 MiB holds everything after one pass.
	for _, budget := range []int64{1 << 14, 4 << 20} {
		pool := NewBufferPool(budget)
		ooc, err := OpenTable(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []Strategy{ScanStrategy, ActiveStrategy} {
			for _, tc := range cases {
				res, err := ooc.Query(ctx, tc.q, fixedOpts(WithStrategy(st))...)
				if err != nil {
					t.Fatalf("%s/%s budget=%d out-of-core: %v", tc.name, st, budget, err)
				}
				if want := resident[key{st, tc.name}]; !reflect.DeepEqual(stripTimes(res), want) {
					t.Errorf("%s/%s budget=%d: out-of-core differs from resident\nooc:      %+v\nresident: %+v",
						tc.name, st, budget, res, want)
				}
			}
		}
		st := ooc.PoolStats()
		if st.Misses == 0 || st.BytesRead == 0 {
			t.Errorf("budget=%d: pool counters did not move: %+v", budget, st)
		}
		if budget == 1<<14 && st.Evictions == 0 {
			t.Errorf("budget=%d: tiny pool saw no evictions: %+v", budget, st)
		}
		closeOutOfCore(t, ooc, pool)
	}
}

// TestOutOfCorePoolCountersDeterministic runs one fixed list of queries
// — a dense grouped AVG that reads every block, a sparse filter the
// bitmap index prunes to about one block in a hundred, and a threshold
// query that stops early — twice through a pool smaller than the table, each time on a
// fresh pool and table handle. Every extent is read by the pin of the
// scan that needs it, so the pool's counters are a function of the list
// alone and both runs must count the same.
func TestOutOfCorePoolCountersDeterministic(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	ctx := context.Background()
	list := []struct {
		q    QueryBuilder
		opts []Option
	}{
		{Avg("DepDelay").GroupBy("Airline"), fixedOpts()},
		{Avg("DepDelay").Where("Origin", "ABQ"), fixedOpts()},
		{Sum("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(2000), fixedOpts()},
	}
	run := func() PoolStats {
		pool := NewBufferPool(256 << 10) // about a third of the table's extents
		ooc, err := OpenTable(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, c := range list {
				if _, err := ooc.Query(ctx, c.q, c.opts...); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := ooc.PoolStats()
		closeOutOfCore(t, ooc, pool)
		return st
	}
	first, second := run(), run()
	if first.Misses == 0 || first.Evictions == 0 {
		t.Fatalf("the list did not stress the pool: %+v", first)
	}
	type counts struct{ Hits, Misses, Evictions, BytesRead int64 }
	a := counts{first.Hits, first.Misses, first.Evictions, first.BytesRead}
	b := counts{second.Hits, second.Misses, second.Evictions, second.BytesRead}
	if a != b {
		t.Errorf("the same list counted differently on two fresh pools:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestOutOfCoreStreamEquivalence drains a streaming cursor over the
// disk-backed table under a tiny pool and compares every per-round
// Progress snapshot — not just the final Result — against the resident
// stream. Paging must be invisible in the δ/interval trajectory too.
func TestOutOfCoreStreamEquivalence(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	ctx := context.Background()
	q := Avg("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(2000)

	drain := func(tb *Table) ([]Progress, *Result) {
		rows, err := tb.Stream(ctx, q, fixedOpts()...)
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

	resSnaps, resFinal := drain(tab)

	pool := NewBufferPool(1 << 14)
	ooc, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)
	oocSnaps, oocFinal := drain(ooc)

	if !reflect.DeepEqual(resFinal, oocFinal) {
		t.Errorf("stream final result differs:\nresident: %+v\nooc:      %+v", resFinal, oocFinal)
	}
	if !reflect.DeepEqual(resSnaps, oocSnaps) {
		t.Errorf("stream snapshots differ (%d vs %d rounds)", len(resSnaps), len(oocSnaps))
	}
}

// TestOutOfCoreConcurrentQueries runs concurrent SQL queries against one
// disk-backed table through a pool far smaller than the table —
// evictions land mid-scan, under contention — and checks every answer
// byte-identical to a replay over the fully resident table from the
// recorded start block, with δ accounting to match. Run with -race this
// doubles as the paging concurrency check.
func TestOutOfCoreConcurrentQueries(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	pool := NewBufferPool(1 << 14)
	ooc, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)

	eng := NewEngine(WithSessionBudget(1e-6, 100))
	if err := eng.Register("flights", ooc); err != nil {
		t.Fatal(err)
	}
	solo := NewEngine(WithSessionBudget(1e-6, 100))
	if err := solo.Register("flights", tab); err != nil {
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
			res, err := eng.Query(ctx, sqlText, fixedOpts()...)
			results[i] = outcome{res, err}
		}(i, sqlText)
	}
	wg.Wait()

	for i, sqlText := range queries {
		if results[i].err != nil {
			t.Fatalf("%s: %v", sqlText, results[i].err)
		}
		replay, err := solo.Query(ctx, sqlText, fixedOpts(WithStartBlock(results[i].res.StartBlock))...)
		if err != nil {
			t.Fatalf("%s replay: %v", sqlText, err)
		}
		if !reflect.DeepEqual(stripTimes(results[i].res), stripTimes(replay)) {
			t.Errorf("%s: concurrent out-of-core run differs from resident replay at block %d",
				sqlText, results[i].res.StartBlock)
		}
	}

	// δ accounting is backing-independent: the concurrent queries
	// charged exactly what the resident replays charged.
	if got, want := eng.SessionError(), solo.SessionError(); got != want {
		t.Errorf("SessionError = %g over disk, %g resident", got, want)
	}
	if st := ooc.PoolStats(); st.Evictions == 0 || st.Misses == 0 {
		t.Errorf("the queries did not stress the pool: %+v", st)
	}
}
