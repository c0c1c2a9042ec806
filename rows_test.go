package fastframe

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRowsDrainMatchesQuery: draining the cursor yields every round in
// order, and Final equals the one-shot Query result byte for byte.
func TestRowsDrainMatchesQuery(t *testing.T) {
	eng := stmtTestEngine(t)
	ctx := context.Background()
	stmt, err := eng.Prepare(
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline WITHIN ABS ?",
		WithSeed(4), WithRoundRows(2000))
	if err != nil {
		t.Fatal(err)
	}

	rows, err := stmt.Stream(ctx, "ORD", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	var rounds []Progress
	for rows.Next() {
		rounds = append(rounds, rows.Snapshot())
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	final, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}

	if len(rounds) == 0 {
		t.Fatal("no rounds streamed")
	}
	for i, p := range rounds {
		if p.Round != i+1 {
			t.Errorf("snapshot %d has Round %d", i, p.Round)
		}
		if i > 0 && p.RowsCovered <= rounds[i-1].RowsCovered {
			t.Errorf("round %d did not advance coverage", p.Round)
		}
	}
	if got := rounds[len(rounds)-1].Round; got != final.Rounds {
		t.Errorf("last snapshot round %d != final rounds %d", got, final.Rounds)
	}

	want, err := stmt.Query(ctx, "ORD", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(final, want) {
		t.Errorf("streamed final differs from one-shot result:\n%+v\nvs\n%+v", final, want)
	}

	// The final intervals refine the last snapshot's: same groups and
	// estimates, nested CIs. (On exhaustion the final result upgrades
	// intervals to exact points, so equality is one-sided.)
	last := rounds[len(rounds)-1]
	if len(last.Groups) != len(final.Groups) {
		t.Fatalf("last snapshot has %d groups, final %d", len(last.Groups), len(final.Groups))
	}
	for i := range last.Groups {
		lg, fg := last.Groups[i], final.Groups[i]
		if lg.Key != fg.Key {
			t.Errorf("group %d: last snapshot key %q vs final %q", i, lg.Key, fg.Key)
			continue
		}
		if fg.Answers[0].Lo < lg.Answers[0].Lo || fg.Answers[0].Hi > lg.Answers[0].Hi {
			t.Errorf("group %s: final interval %v not nested in last snapshot %v", fg.Key, fg.Answers[0], lg.Answers[0])
		}
	}
}

// TestRowsCloseBeforeDrain: Close mid-stream aborts the scan at the
// next round boundary; Final returns the partial result with Aborted
// set, and double-Close is safe.
func TestRowsCloseBeforeDrain(t *testing.T) {
	eng := stmtTestEngine(t)
	rows, err := eng.Stream(context.Background(),
		"SELECT AVG(DepDelay) FROM flights WITHIN 0.1%", // unreachable: would exhaust
		WithRoundRows(500), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first round: %v", rows.Err())
	}
	seen := rows.Snapshot()

	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if rows.Next() {
		t.Error("Next returned true after Close")
	}

	final, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Aborted {
		t.Error("final result of a closed stream is not Aborted")
	}
	if final.Exhausted {
		t.Error("closed stream claims exhaustion")
	}
	// The scan stopped within a round or two of the Close.
	if final.Rounds > seen.Round+1 {
		t.Errorf("scan ran %d rounds after Close at round %d", final.Rounds-seen.Round, seen.Round)
	}
	// Partial intervals are still present and ordered.
	if len(final.Groups) == 0 {
		t.Error("aborted result lost its partial intervals")
	}
	for _, g := range final.Groups {
		if g.Answers[0].Lo > g.Answers[0].Estimate || g.Answers[0].Estimate > g.Answers[0].Hi {
			t.Errorf("aborted interval inconsistent: %+v", g.Answers[0])
		}
	}
}

// TestRowsBackpressure: the scan is consumer-paced — with no Next
// call, the producer must sit at the first round barrier rather than
// scanning ahead.
func TestRowsBackpressure(t *testing.T) {
	eng := stmtTestEngine(t)
	rows, err := eng.Stream(context.Background(),
		"SELECT AVG(DepDelay) FROM flights WITHIN 0.1%",
		WithRoundRows(500), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	time.Sleep(50 * time.Millisecond) // give the producer time to run ahead if it could
	if !rows.Next() {
		t.Fatalf("no first round: %v", rows.Err())
	}
	if got := rows.Snapshot().Round; got != 1 {
		t.Errorf("first delivered round = %d, want 1 (scan ran ahead of the consumer)", got)
	}
}

// TestRowsConsumerRunsAtEachLook: handing a look to the consumer yields
// to it. On one P the consumer so takes look k before the scan reaches
// look k+1; without the yield it waits until the scan blocks at look
// k+1's hand-off.
func TestRowsConsumerRunsAtEachLook(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng := stmtTestEngine(t)
	var reached atomic.Int64 // looks the scan has closed
	rows, err := eng.Stream(context.Background(),
		"SELECT AVG(DepDelay) FROM flights GROUP BY Airline WITHIN 0.1%",
		WithRoundRows(500), WithSeed(2),
		WithProgress(func(Progress) bool { reached.Add(1); return true }))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	took, ahead := 0, 0
	for rows.Next() {
		took++
		if reached.Load() > int64(rows.Snapshot().Round) {
			ahead++
		}
	}
	if took < 10 {
		t.Fatalf("%d looks, want at least 10", took)
	}
	// The scheduler serves its global queue first on one dispatch in 61,
	// so a look may now and then find the scan one look further.
	if ahead > took/5 {
		t.Errorf("the scan had passed the look the consumer took %d times in %d", ahead, took)
	}
}

// TestRowsRoundsIterator: the iter.Seq adapter sees the same rounds,
// and breaking out leaves a closable cursor.
func TestRowsRoundsIterator(t *testing.T) {
	eng := stmtTestEngine(t)
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM flights WHERE Origin = 'ORD' WITHIN 20%"

	rows, err := eng.Stream(ctx, q, WithRoundRows(2000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for p := range rows.Rounds() {
		n++
		if p.Round != n {
			t.Errorf("iterator round %d at position %d", p.Round, n)
		}
	}
	final, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}
	if n != final.Rounds {
		t.Errorf("iterator saw %d rounds, final reports %d", n, final.Rounds)
	}

	// Early break, then Close.
	rows, err = eng.Stream(ctx, q, WithRoundRows(500), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for range rows.Rounds() {
		break
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := rows.Final(); err != nil || !res.Aborted {
		t.Errorf("after break+Close: res=%+v err=%v", res, err)
	}
}

// TestRowsContextCancel: cancelling the context unblocks the stream;
// the partial result remains valid.
func TestRowsContextCancel(t *testing.T) {
	eng := stmtTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := eng.Stream(ctx,
		"SELECT AVG(DepDelay) FROM flights WITHIN 0.1%",
		WithRoundRows(500), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first round: %v", rows.Err())
	}
	cancel()
	final, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Aborted {
		t.Error("cancelled stream result not Aborted")
	}
}

// TestRowsExecutionError: a statement that compiles but fails at run
// time (unknown column) surfaces its error via Err/Final, not a hang.
func TestRowsExecutionError(t *testing.T) {
	eng := stmtTestEngine(t)
	rows, err := eng.Stream(context.Background(), "SELECT AVG(NoSuchColumn) FROM flights")
	if err != nil {
		t.Fatal(err) // compile-time OK: column resolution is a run-time concern
	}
	if rows.Next() {
		t.Error("Next returned a round for a failing query")
	}
	if _, err := rows.Final(); err == nil {
		t.Error("Final returned no error for unknown column")
	}
	if rows.Err() == nil {
		t.Error("Err returned nil for unknown column")
	}
	if err := rows.Close(); err == nil {
		t.Error("Close returned nil for unknown column")
	}
}

// TestRowsConcurrentClose: Close from another goroutine unblocks a
// pending Next (exercised under -race in CI).
func TestRowsConcurrentClose(t *testing.T) {
	eng := stmtTestEngine(t)
	rows, err := eng.Stream(context.Background(),
		"SELECT AVG(DepDelay) FROM flights WITHIN 0.1%",
		WithRoundRows(500), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first round: %v", rows.Err())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		rows.Close()
	}()
	for rows.Next() { // drains until the concurrent Close aborts the scan
	}
	wg.Wait()
	// Depending on timing the scan either aborted via Close or finished
	// first; both must leave a coherent terminal result.
	if res, err := rows.Final(); err != nil || res == nil || !(res.Aborted || res.Exhausted) {
		t.Errorf("after concurrent close: res=%v err=%v", res, err)
	}
}

// TestTableStream: the builder-level cursor works without an Engine.
func TestTableStream(t *testing.T) {
	tab := mustTable(t)
	rows, err := tab.Stream(context.Background(),
		Avg("DepDelay").StopAtAbsError(5), WithRoundRows(1000), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	final, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || final.Rounds != n {
		t.Errorf("streamed %d rounds, final reports %d", n, final.Rounds)
	}

	want, err := tab.Query(context.Background(),
		Avg("DepDelay").StopAtAbsError(5), WithRoundRows(1000), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(final, want) {
		t.Error("Table.Stream final differs from Table.Query")
	}
}
