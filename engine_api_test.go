package fastframe

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testEngine(t testing.TB) *Engine {
	t.Helper()
	eng := NewEngine(WithQueryDelta(1e-9))
	if err := eng.Register("flights", smallFlights(t)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineQueryMatchesBuilder runs the acceptance shapes through the
// SQL front-end and the query builder with identical settings; the
// executions are deterministic, so the results must match exactly.
func TestEngineQueryMatchesBuilder(t *testing.T) {
	tab := smallFlights(t)
	eng := NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		sql     string
		builder QueryBuilder
	}{
		{
			name:    "ungrouped AVG, relative-error stop",
			sql:     "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 20%",
			builder: Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.2),
		},
		{
			name:    "grouped AVG, HAVING-threshold stop",
			sql:     "SELECT AVG(DepDelay) FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 9.3",
			builder: Avg("DepDelay").GroupBy("Airline").StopWhenThresholdDecided(9.3),
		},
		{
			name:    "grouped SUM, top-k stop",
			sql:     "SELECT SUM(DepDelay) FROM flights GROUP BY Origin ORDER BY SUM(DepDelay) DESC LIMIT 3",
			builder: Sum("DepDelay").GroupBy("Origin").StopWhenTopKSeparated(3),
		},
		{
			name:    "COUNT(*) with categorical and numeric predicate",
			sql:     "SELECT COUNT(*) FROM flights WHERE Origin = 'ORD' AND DepTime > 1300 WITHIN 20%",
			builder: CountRows().Where("Origin", "ORD").WhereGreater("DepTime", 1300).StopAtRelError(0.2),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := eng.Query(context.Background(), c.sql, fastOpts()...)
			if err != nil {
				t.Fatalf("Engine.Query: %v", err)
			}
			want, err := tab.Query(context.Background(), c.builder, fastOpts()...)
			if err != nil {
				t.Fatalf("Table.Query: %v", err)
			}
			if got.RowsCovered != want.RowsCovered || got.Rounds != want.Rounds ||
				got.Stopped != want.Stopped || got.Exhausted != want.Exhausted {
				t.Errorf("cost mismatch: sql {rows %d rounds %d stopped %v exhausted %v}, builder {rows %d rounds %d stopped %v exhausted %v}",
					got.RowsCovered, got.Rounds, got.Stopped, got.Exhausted,
					want.RowsCovered, want.Rounds, want.Stopped, want.Exhausted)
			}
			if len(got.Groups) != len(want.Groups) {
				t.Fatalf("groups: sql %d, builder %d", len(got.Groups), len(want.Groups))
			}
			for i := range got.Groups {
				g, w := got.Groups[i], want.Groups[i]
				if !reflect.DeepEqual(g, w) {
					t.Errorf("group %d differs:\n  sql:     %+v\n  builder: %+v", i, g, w)
				}
			}
		})
	}
}

// TestEngineQueryAgainstExact sanity-checks the SQL path against the
// exact evaluator (interval coverage, not just builder agreement).
func TestEngineQueryAgainstExact(t *testing.T) {
	eng := testEngine(t)
	const q = "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 15%"
	res, err := eng.Query(context.Background(), q, WithRoundRows(2000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped && !res.Exhausted {
		t.Error("query neither stopped nor exhausted")
	}
	ex, err := eng.QueryExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Groups) == 0 {
		t.Fatal("exact result empty")
	}
	if want := []Agg{AggAvg}; !reflect.DeepEqual(res.Aggs, want) || !reflect.DeepEqual(ex.Aggs, want) {
		t.Errorf("Aggs = %v / %v, want [AVG]", res.Aggs, ex.Aggs)
	}
	for _, eg := range ex.Groups {
		g := res.Group(eg.Key)
		if g == nil {
			t.Errorf("group %q missing from approximate result", eg.Key)
			continue
		}
		if !g.Answers[0].Contains(eg.Stats[0]) {
			t.Errorf("group %q: exact %v outside %v", eg.Key, eg.Stats[0], g.Answers[0])
		}
	}
}

// TestEngineCancellation proves Engine.Query returns promptly on a
// context deadline, with Aborted set and still-valid intervals.
func TestEngineCancellation(t *testing.T) {
	eng := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	// The progress callback simulates a slow online-aggregation
	// consumer: it holds each round open until the deadline has passed,
	// so the scan cannot finish before cancellation is observed.
	start := time.Now()
	res, err := eng.Query(ctx,
		"SELECT AVG(DepDelay) FROM flights EXACT",
		WithRoundRows(1000),
		WithProgress(func(p Progress) bool {
			<-ctx.Done()
			return true
		}))
	if err != nil {
		t.Fatalf("cancelled query returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("query took %v after a 30ms deadline", elapsed)
	}
	if !res.Aborted {
		t.Error("Result.Aborted not set after deadline")
	}
	if res.Exhausted {
		t.Error("scan claims exhaustion despite deadline")
	}
	if res.Rounds == 0 {
		t.Error("no rounds closed before abort")
	}

	// The partial interval is still a valid CI around the exact mean.
	ex, err := eng.QueryExact(context.Background(), "SELECT AVG(DepDelay) FROM flights")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(ex.Groups) != 1 {
		t.Fatalf("groups: approx %d, exact %d", len(res.Groups), len(ex.Groups))
	}
	g := res.Groups[0]
	if !g.Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("partial interval %v does not cover exact mean %v", g.Answers[0], ex.Groups[0].Stats[0])
	}
	if g.Answers[0].Width() <= 0 || math.IsInf(g.Answers[0].Width(), 0) {
		t.Errorf("degenerate partial interval %v", g.Answers[0])
	}

	// A context that is already done before any work starts surfaces
	// the context error instead of a result.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := eng.Query(done, "SELECT AVG(DepDelay) FROM flights"); err == nil {
		t.Error("pre-cancelled context accepted")
	}
	// Exact scans honor the context too; there is no valid partial
	// exact answer, so cancellation surfaces as the context error.
	if _, err := eng.QueryExact(done, "SELECT AVG(DepDelay) FROM flights"); err == nil {
		t.Error("pre-cancelled QueryExact accepted")
	}
}

func TestEngineSessionBudget(t *testing.T) {
	tab := smallFlights(t)
	eng := NewEngine(WithSessionBudget(1e-12, 4))
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	total, perQuery := eng.SessionBudget()
	if total != 1e-12 || perQuery != 2.5e-13 {
		t.Fatalf("budget = (%v, %v)", total, perQuery)
	}

	const q = "SELECT AVG(DepDelay) FROM flights WITHIN 25%"
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(context.Background(), q, WithRoundRows(2000)); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.QueriesRun(); n != 2 {
		t.Errorf("QueriesRun = %d", n)
	}
	if spent := eng.SessionError(); math.Abs(spent-5e-13) > 1e-25 {
		t.Errorf("SessionError = %v, want 5e-13", spent)
	}

	// A per-query override is charged at its own δ.
	if _, err := eng.Query(context.Background(), q, WithRoundRows(2000), WithDelta(1e-9)); err != nil {
		t.Fatal(err)
	}
	if spent := eng.SessionError(); math.Abs(spent-(5e-13+1e-9)) > 1e-20 {
		t.Errorf("SessionError after override = %v", spent)
	}

	// Failed queries consume no budget.
	if _, err := eng.Query(context.Background(), "SELECT AVG(NoSuchColumn) FROM flights"); err == nil {
		t.Error("bad column accepted")
	}
	if n := eng.QueriesRun(); n != 3 {
		t.Errorf("QueriesRun counts failed query: %d", n)
	}
}

func TestEngineErrors(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Query(context.Background(), "SELECT AVG(x) FROM nowhere"); err == nil ||
		!strings.Contains(err.Error(), "no tables registered") {
		t.Errorf("empty engine error = %v", err)
	}
	eng = testEngine(t)
	_, err := eng.Query(context.Background(), "SELECT AVG(x) FROM nowhere")
	if err == nil || !strings.Contains(err.Error(), `unknown table "nowhere"`) ||
		!strings.Contains(err.Error(), "flights") {
		t.Errorf("unknown-table error = %v", err)
	}
	if _, err := eng.Query(context.Background(), "SELEKT nonsense"); err == nil ||
		!strings.Contains(err.Error(), "sql:") {
		t.Errorf("parse error = %v", err)
	}
	if err := eng.Register("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	if err := eng.Register("x", nil); err == nil {
		t.Error("nil table accepted")
	}
	if got := eng.Tables(); len(got) != 1 || got[0] != "flights" {
		t.Errorf("Tables = %v", got)
	}
}

func TestEngineExplain(t *testing.T) {
	eng := NewEngine()
	plan, err := eng.Explain("SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"AVG(DepDelay)", `Origin = "ORD"`, "rel-width", "FROM flights"} {
		if !strings.Contains(plan, sub) {
			t.Errorf("Explain = %q, missing %q", plan, sub)
		}
	}
	if _, err := eng.Explain("SELECT"); err == nil {
		t.Error("Explain accepted bad SQL")
	}
}

// TestEngineExplainScanPrune checks Explain renders the zone-map
// prunability of float-range predicates against the registered table:
// one PRUNE line per range atom plus the combined-mask summary, with
// the possible-block count matching what a scan would actually fetch.
func TestEngineExplainScanPrune(t *testing.T) {
	eng := testEngine(t)
	plan, err := eng.Explain("SELECT COUNT(*) FROM flights WHERE DepDelay >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "PRUNE range DepDelay >= 100") ||
		!strings.Contains(plan, "blocks possible") ||
		!strings.Contains(plan, "PRUNE scan:") {
		t.Fatalf("Explain missing zone-map prune rendering:\n%s", plan)
	}
	// The rendered possible-block count is the scan's actual fetch
	// ceiling: run the query to exhaustion and compare.
	res, err := eng.Query(context.Background(), "SELECT COUNT(*) FROM flights WHERE DepDelay >= 100")
	if err != nil {
		t.Fatal(err)
	}
	var possible, total int
	if _, err := fmt.Sscanf(plan[strings.Index(plan, "PRUNE scan:"):], "PRUNE scan: %d of %d blocks possible", &possible, &total); err != nil {
		t.Fatalf("cannot parse PRUNE scan line in:\n%s", plan)
	}
	if res.BlocksFetched > possible {
		t.Errorf("scan fetched %d blocks, plan promised at most %d", res.BlocksFetched, possible)
	}
	if possible >= total {
		t.Errorf("tail predicate pruned nothing: %d of %d", possible, total)
	}

	// A predicate over a value absent from the dictionary renders the
	// provably empty view.
	plan, err = eng.Explain("SELECT COUNT(*) FROM flights WHERE Origin = 'NOWHERE'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "provably empty view") {
		t.Errorf("empty view not rendered:\n%s", plan)
	}
}

// TestGroupLookup exercises the binary-search Group lookups on both
// result types, including misses before, between, and after the keys.
func TestGroupLookup(t *testing.T) {
	eng := testEngine(t)
	const q = "SELECT AVG(DepDelay) FROM flights GROUP BY Airline WITHIN 25%"
	res, err := eng.Query(context.Background(), q, WithRoundRows(2000))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.QueryExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 2 {
		t.Fatalf("want several groups, got %d", len(res.Groups))
	}
	for i := range res.Groups {
		key := res.Groups[i].Key
		if g := res.Group(key); g == nil || g.Key != key {
			t.Errorf("Result.Group(%q) = %v", key, g)
		}
		if g := ex.Group(key); g == nil || g.Key != key {
			t.Errorf("ExactResult.Group(%q) = %v", key, g)
		}
	}
	for _, miss := range []string{"", "AA0", "zzz", res.Groups[0].Key + "\x00"} {
		if g := res.Group(miss); g != nil {
			t.Errorf("Result.Group(%q) = %+v, want nil", miss, g)
		}
		if g := ex.Group(miss); g != nil {
			t.Errorf("ExactResult.Group(%q) = %+v, want nil", miss, g)
		}
	}
}

// TestDeltaOutOfRangeRejected: δ is a probability below 1. NaN, a
// negative value, and 1 or more (+Inf included) fail the query on every
// path that runs one — Table.Query, an engine's session δ and the
// streaming cursor — and NewMeanEstimator, instead of running at the
// default δ or answering with a vacuous interval; 0 still selects the
// default.
func TestDeltaOutOfRangeRejected(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	q := Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.2)
	const sqlText = "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 20%"
	engine := func(d float64) *Engine {
		eng := NewEngine(WithQueryDelta(d))
		if err := eng.Register("flights", tab); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	drain := func(rows *Rows, err error) error {
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		_, err = rows.Final()
		return err
	}
	paths := []struct {
		name string
		run  func(d float64) error
	}{
		{"Table.Query", func(d float64) error {
			_, err := tab.Query(ctx, q, WithDelta(d))
			return err
		}},
		{"Engine.Query", func(d float64) error {
			_, err := engine(d).Query(ctx, sqlText)
			return err
		}},
		{"Table.Stream", func(d float64) error { return drain(tab.Stream(ctx, q, WithDelta(d))) }},
		{"Engine.Stream", func(d float64) error { return drain(engine(d).Stream(ctx, sqlText)) }},
		{"NewMeanEstimator", func(d float64) error {
			_, err := NewMeanEstimator(EstimatorConfig{Bounder: Hoeffding, A: 0, B: 10, N: 1000, Delta: d})
			return err
		}},
	}
	for _, p := range paths {
		for _, d := range []float64{2, 1, math.Inf(1), math.NaN(), -1} {
			if err := p.run(d); err == nil || !strings.Contains(err.Error(), "δ") {
				t.Errorf("%s at δ = %v: err = %v, want δ refused", p.name, d, err)
			}
		}
		if err := p.run(0); err != nil {
			t.Errorf("%s at δ = 0 (the default): %v", p.name, err)
		}
	}
}
