package fastframe

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"fastframe/internal/blockstore"
)

// silentRetries installs a retry policy whose backoff is recorded on a
// no-op clock, so chaos runs retry and quarantine at full speed.
func silentRetries(pool *BufferPool) {
	pool.p.SetRetryPolicy(blockstore.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	})
}

// colIndex resolves a column name to its store column index.
func colIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	sch := tab.t.Schema()
	for i := 0; i < sch.NumColumns(); i++ {
		if sch.Column(i).Name == name {
			return i
		}
	}
	t.Fatalf("no column %q", name)
	return -1
}

// TestChaosTransientFaultsHealByteIdentical injects transient faults
// (every third segment fails its first read attempt) under a tiny pool
// that re-reads constantly: the retry loop must absorb every fault and
// the Results must stay byte-identical to the fully resident runs —
// a healed transient is invisible, not silently degrading.
func TestChaosTransientFaultsHealByteIdentical(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	ctx := context.Background()
	cases := []struct {
		name string
		q    QueryBuilder
	}{
		{"avg-relerr", Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.05)},
		{"sum-grouped", Sum("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(2000)},
		{"count", CountRows().WhereGreater("DepTime", 1500).StopAtAbsError(3000)},
	}

	pool := NewBufferPool(1 << 14) // evicts constantly: faults recur across rounds
	silentRetries(pool)
	ooc, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		if (col+block)%3 == 0 && attempt == 0 {
			return errors.New("injected transient fault")
		}
		return nil
	})

	for _, tc := range cases {
		want, err := tab.Query(ctx, tc.q, fixedOpts()...)
		if err != nil {
			t.Fatalf("%s resident: %v", tc.name, err)
		}
		got, err := ooc.Query(ctx, tc.q, fixedOpts()...)
		if err != nil {
			t.Fatalf("%s faulted: %v", tc.name, err)
		}
		if got.Degraded || got.QuarantinedBlocks != 0 {
			t.Errorf("%s: healed run reports degraded=%v quarantined=%d",
				tc.name, got.Degraded, got.QuarantinedBlocks)
		}
		if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
			t.Errorf("%s: faulted out-of-core run differs from resident", tc.name)
		}
	}

	fs := ooc.t.Store().FaultStats()
	if fs.Retries == 0 || fs.IOErrors == 0 {
		t.Errorf("chaos did not bite: %+v", fs)
	}
	if fs.QuarantinedBlocks != 0 {
		t.Errorf("transient faults quarantined %d blocks", fs.QuarantinedBlocks)
	}
}

// TestChaosPermanentFaultDefaultError makes one column permanently
// unreadable. Default mode: a query touching it fails at a round
// boundary with a classified *blockstore.BlockError carrying the
// registered table name — while concurrent queries on healthy columns,
// through the same table and pool, are untouched, each answer still
// byte-identical to a resident replay.
func TestChaosPermanentFaultDefaultError(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	pool := NewBufferPool(1 << 20)
	silentRetries(pool)
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

	depTime := colIndex(t, tab, "DepTime")
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		if col == depTime {
			return errors.New("injected permanent fault")
		}
		return nil
	})

	ctx := context.Background()
	healthy := []string{
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%",
		"SELECT SUM(DepDelay) FROM flights GROUP BY Airline HAVING SUM(DepDelay) > 2000",
		"SELECT AVG(DepDelay) FROM flights GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 3",
	}
	poisoned := "SELECT AVG(DepTime) FROM flights WITHIN 5%"

	type outcome struct {
		res *Result
		err error
	}
	results := make([]outcome, len(healthy))
	var wg sync.WaitGroup
	var poisonErr error
	for i, sqlText := range healthy {
		wg.Add(1)
		go func(i int, sqlText string) {
			defer wg.Done()
			res, err := eng.Query(ctx, sqlText, fixedOpts()...)
			results[i] = outcome{res, err}
		}(i, sqlText)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, poisonErr = eng.Query(ctx, poisoned, fixedOpts()...)
	}()
	wg.Wait()

	if poisonErr == nil {
		t.Fatal("query over the unreadable column succeeded")
	}
	table, col, _, kind, ok := StorageFault(poisonErr)
	if !ok {
		t.Fatalf("poisoned query error is not a storage fault: %v", poisonErr)
	}
	if table != "flights" || col != depTime || kind != "io" {
		t.Errorf("fault identity: table=%q col=%d kind=%q", table, col, kind)
	}

	for i, sqlText := range healthy {
		if results[i].err != nil {
			t.Fatalf("neighbour %s failed alongside the poisoned query: %v", sqlText, results[i].err)
		}
		replay, err := solo.Query(ctx, sqlText, fixedOpts(WithStartBlock(results[i].res.StartBlock))...)
		if err != nil {
			t.Fatalf("%s replay: %v", sqlText, err)
		}
		if !reflect.DeepEqual(stripTimes(results[i].res), stripTimes(replay)) {
			t.Errorf("%s: answer disturbed by the poisoned neighbour", sqlText)
		}
	}

	// The engine stays serviceable after the failure.
	if _, err := eng.Query(ctx, healthy[0], fixedOpts()...); err != nil {
		t.Fatalf("engine wedged after storage failure: %v", err)
	}
}

// TestChaosDegradedReadsConservative is the Monte-Carlo validity check:
// random subsets of one column's blocks fail permanently, and queries
// opted into WithDegradedReads must skip them, mark the Result
// Degraded, and still return intervals containing the exact resident
// answer.
func TestChaosDegradedReadsConservative(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	ctx := context.Background()
	depDelay := colIndex(t, tab, "DepDelay")

	q := Select(Avg("DepDelay"), CountRows()).GroupBy("Airline").StopAtAbsError(1.0)
	exact, err := tab.QueryExact(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	exactAvg := map[string]float64{}
	exactCount := map[string]int{}
	for _, g := range exact.Groups {
		exactAvg[g.Key] = g.Stats[0]
		exactCount[g.Key] = g.Count
	}

	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 1234))
		bad := map[int]bool{}
		for b := 0; b < tab.NumBlocks(); b++ {
			if rng.IntN(10) == 0 { // ~10% of blocks unreadable
				bad[b] = true
			}
		}

		pool := NewBufferPool(1 << 20)
		silentRetries(pool)
		ooc, err := OpenTable(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		ooc.InjectStorageFault(func(col, block, attempt int) error {
			if col == depDelay && bad[block] {
				return errors.New("injected permanent fault")
			}
			return nil
		})

		res, err := ooc.Query(ctx, q, fixedOpts(WithDegradedReads())...)
		if err != nil {
			t.Fatalf("trial %d: degraded query failed: %v", trial, err)
		}
		if len(bad) > 0 {
			if !res.Degraded || res.QuarantinedBlocks == 0 {
				t.Fatalf("trial %d: %d bad blocks but Degraded=%v quarantined=%d",
					trial, len(bad), res.Degraded, res.QuarantinedBlocks)
			}
		}
		for _, g := range res.Groups {
			want, okAvg := exactAvg[g.Key]
			if !okAvg {
				t.Fatalf("trial %d: unexpected group %q", trial, g.Key)
			}
			if avg := g.Answers[0]; !avg.Contains(want) {
				t.Errorf("trial %d group %q: AVG interval [%v, %v] misses exact %v",
					trial, g.Key, avg.Lo, avg.Hi, want)
			}
			wc := float64(exactCount[g.Key])
			if cnt := g.Answers[1]; !cnt.Contains(wc) {
				t.Errorf("trial %d group %q: COUNT interval [%v, %v] misses exact %v",
					trial, g.Key, cnt.Lo, cnt.Hi, wc)
			}
		}

		closeOutOfCore(t, ooc, pool)
	}
}

// TestChaosDefaultModeNoDegradedResult pins down the default contract:
// without WithDegradedReads a permanently unreadable block yields an
// error — never a silently narrowed Result.
func TestChaosDefaultModeNoDegradedResult(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	pool := NewBufferPool(1 << 20)
	silentRetries(pool)
	ooc, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)
	depDelay := colIndex(t, tab, "DepDelay")
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		if col == depDelay && block == 7 {
			return errors.New("injected permanent fault")
		}
		return nil
	})

	// Exhaustive stop guarantees the scan reaches block 7.
	q := Avg("DepDelay").StopAtAbsError(0.0001)
	res, err := ooc.Query(context.Background(), q, fixedOpts()...)
	if err == nil {
		t.Fatalf("default mode returned a Result (%+v) over an unreadable block", res)
	}
	if _, _, block, _, ok := StorageFault(err); !ok || block != 7 {
		t.Fatalf("error does not identify the damaged block: %v", err)
	}
}

// TestChaosFlippedByteInsideExtent damages one byte of the table file
// and asks the offline verifier which block it hit. The pool reads that
// block together with its 63 neighbours, yet the damage must stay the
// block's own: the default mode fails with a checksum fault naming it,
// and WithDegradedReads skips exactly it — every other row of the
// column, its neighbours in the extent included, is observed.
func TestChaosFlippedByteInsideExtent(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A third of the way in lies inside a float column's segments. A
	// segment's length prefix is covered by no checksum (random access
	// reads lengths from the footer): step past one if hit.
	col, block := "", -1
	for off := len(data) / 3; block < 0; off++ {
		data[off] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyTable(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Cols {
			if c.BadBlocks == 1 && rep.BadBlocks == 1 {
				col, block = c.Name, c.BadBlockIDs[0]
			}
		}
		if block < 0 {
			data[off] ^= 0xff
		}
	}

	pool := NewBufferPool(1 << 20)
	silentRetries(pool)
	ooc, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)
	ctx := context.Background()
	q := Avg(col).StopAtAbsError(1e-9) // exhaustive: reaches every block

	_, err = ooc.Query(ctx, q, fixedOpts()...)
	if _, _, b, kind, ok := StorageFault(err); !ok || b != block || kind != "checksum" {
		t.Fatalf("default mode: %v, want a checksum fault at block %d of %s", err, block, col)
	}
	if st := pool.Stats(); st.QuarantinedBlocks != 1 || st.ChecksumFailures != 3 || st.Retries != 2 {
		t.Errorf("after the failed query: %+v; want 1 block quarantined after 3 attempts", st)
	}

	want, err := tab.Query(ctx, q, fixedOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ooc.Query(ctx, q, fixedOpts(WithDegradedReads())...)
	if err != nil {
		t.Fatal(err)
	}
	lost := want.Groups[0].Samples - got.Groups[0].Samples
	if !got.Degraded || got.QuarantinedBlocks != 1 || got.BlocksFetched != want.BlocksFetched-1 || lost != 25 {
		t.Errorf("degraded run: quarantined=%d fetched=%d (resident %d) rows lost=%d; want exactly one 25-row block skipped",
			got.QuarantinedBlocks, got.BlocksFetched, want.BlocksFetched, lost)
	}
	if iv := got.Groups[0].Answers[0]; !iv.Contains(want.Groups[0].Answers[0].Estimate) {
		t.Errorf("degraded interval [%v, %v] misses the exact mean %v", iv.Lo, iv.Hi, want.Groups[0].Answers[0].Estimate)
	}
	if st := pool.Stats(); st.QuarantinedBlocks != 1 || st.ChecksumFailures != 3 {
		t.Errorf("at the end: %+v; want the one block, never re-read", st)
	}
}
