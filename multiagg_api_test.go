package fastframe

import (
	"context"
	"math"
	"strings"
	"testing"
)

const multiAggSQL = "SELECT AVG(DepDelay), MEDIAN(DepDelay), VAR(DepDelay), COUNT(DISTINCT Origin) FROM flights GROUP BY Airline"

// TestMultiAggEndToEnd runs the acceptance query — four statistics on
// one scan — through the SQL engine and checks the per-aggregate
// answers against the exact evaluator.
func TestMultiAggEndToEnd(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	res, err := eng.Query(ctx, multiAggSQL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	wantAggs := []Agg{AggAvg, AggMedian, AggVar, AggCountDistinct}
	if len(res.Aggs) != len(wantAggs) {
		t.Fatalf("Aggs = %v", res.Aggs)
	}
	for i, a := range wantAggs {
		if res.Aggs[i] != a {
			t.Fatalf("Aggs[%d] = %v, want %v", i, res.Aggs[i], a)
		}
	}
	if !res.Exhausted {
		t.Fatalf("no tail clause should exhaust the scramble: %+v", res)
	}

	ex, err := eng.QueryExact(ctx, multiAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Aggs) != len(wantAggs) {
		t.Fatalf("exact Aggs = %v", ex.Aggs)
	}
	if len(res.Groups) == 0 || len(res.Groups) != len(ex.Groups) {
		t.Fatalf("group counts: %d approx, %d exact", len(res.Groups), len(ex.Groups))
	}
	for i, g := range res.Groups {
		e := ex.Groups[i]
		if g.Key != e.Key {
			t.Fatalf("group %d key %q vs exact %q", i, g.Key, e.Key)
		}
		if len(g.Answers) != len(wantAggs) || len(e.Stats) != len(wantAggs) {
			t.Fatalf("group %q: %d answers, %d exact stats", g.Key, len(g.Answers), len(e.Stats))
		}
		if !g.Exact {
			t.Errorf("group %q not exact after exhaustion", g.Key)
		}
		for k := range wantAggs {
			iv, want := g.Answers[k], e.Stats[k]
			if !(iv.Lo <= want && want <= iv.Hi) {
				t.Errorf("group %q %s: interval [%v,%v] misses exact %v",
					g.Key, wantAggs[k], iv.Lo, iv.Hi, want)
			}
			// Exhausted views collapse to points (up to float summation
			// order for the moment-based statistics).
			if w := iv.Width(); w > 1e-6*math.Max(1, math.Abs(want)) {
				t.Errorf("group %q %s: width %v after exhaustion", g.Key, wantAggs[k], w)
			}
		}
	}

	// A Select of a Select appends to the first list: the builder form of
	// the same four aggregates gives the same answers.
	nested := Select(
		Select(Select(Avg("DepDelay"), Median("DepDelay")), Var("DepDelay")),
		CountDistinct("Origin")).GroupBy("Airline")
	tab, err := eng.Table("flights")
	if err != nil {
		t.Fatal(err)
	}
	bres, err := tab.Query(ctx, nested, fastOpts()...)
	if err != nil {
		t.Fatalf("nested Select: %v", err)
	}
	if !sameAnswer(bres, res) {
		t.Errorf("nested Select differs from SQL:\n%+v\n%+v", bres, res)
	}
}

// TestMultiAggStreamMatchesOneShot: the streaming cursor's Final on a
// multi-aggregate statement equals the one-shot result, and each
// snapshot carries the full aggregate list.
func TestMultiAggStreamMatchesOneShot(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	stmt, err := eng.Prepare(multiAggSQL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	snaps := 0
	for p := range rows.Rounds() {
		snaps++
		if len(p.Aggs) != 4 {
			t.Fatalf("snapshot Aggs = %v", p.Aggs)
		}
		for _, g := range p.Groups {
			if len(g.Answers) != 4 {
				t.Fatalf("snapshot group %q has %d answers", g.Key, len(g.Answers))
			}
		}
	}
	final, err := rows.Final()
	if err != nil {
		t.Fatal(err)
	}
	if snaps == 0 {
		t.Error("no per-round snapshots before Final")
	}
	want, err := eng.Query(ctx, multiAggSQL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(final, want) {
		t.Error("streamed Final differs from one-shot result")
	}
}

// TestPercentileParamBinding: PERCENTILE(expr, ?) binds through
// prepared statements; targets outside (0,1), NaN, and ±Inf are
// rejected at Bind with the slot's position.
func TestPercentileParamBinding(t *testing.T) {
	eng := testEngine(t)
	ctx := context.Background()

	stmt, err := eng.Prepare("SELECT PERCENTILE(DepDelay, ?) FROM flights", fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(ctx, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggs) != 1 || res.Aggs[0] != AggPercentile {
		t.Fatalf("Aggs = %v", res.Aggs)
	}
	lit, err := eng.Query(ctx, "SELECT PERCENTILE(DepDelay, 0.99) FROM flights", fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(res, lit) {
		t.Error("bound PERCENTILE differs from literal")
	}

	for _, bad := range []any{0.0, 1.0, 1.5, -0.25, math.NaN(), math.Inf(1)} {
		if _, err := stmt.Query(ctx, bad); err == nil {
			t.Errorf("PERCENTILE target %v accepted", bad)
		} else if !strings.Contains(err.Error(), "parameter 1") {
			t.Errorf("PERCENTILE target %v: error %v lacks slot position", bad, err)
		}
	}
}
