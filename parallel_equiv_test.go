package fastframe

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// stripTimes zeroes wall-clock fields so two Results can be compared
// byte for byte.
func stripTimes(r *Result) *Result {
	r.Duration = 0
	return r
}

// skewedGroups builds a 100 000-row table whose GROUP BY g has one group
// with 84 % of the rows, in every block, and eight of 2 % each, in half
// the blocks each, with means 0.4 … 2.15 beside the big group's 5: HAVING
// and top-K rules settle the big group within a few looks and the rare
// ones one after another, so active scanning skips more and more blocks
// as the scan goes on. h splits every group in three.
func skewedGroups(t testing.TB) *Table {
	t.Helper()
	tb, err := NewTableBuilder(Column{Name: "v", Kind: Float}, Column{Name: "g", Kind: Categorical}, Column{Name: "h", Kind: Categorical})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 100_000; i++ {
		g, mean := "big", 5.0
		if r := rng.Float64(); r < 0.16 {
			k := int(r / 0.02)
			g, mean = fmt.Sprintf("r%d", k), 0.4+0.25*float64(k)
		}
		err := tb.AppendRow(map[string]float64{"v": mean + rng.NormFloat64()}, map[string]string{"g": g, "h": fmt.Sprint(rng.IntN(3))})
		if err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPublicParallelEquivalence: WithParallelism and the PARALLEL hint
// are no-ops. For the default strategy and ScanStrategy, on resident
// tables and through a pool that evicts every extent a scan leaves,
// WithParallelism(8) and a PARALLEL 4 hint return Results and Progress
// streams byte-identical to a run with neither, for a fixed seed —
// across AVG/SUM/COUNT, a row cap, an abort, and GROUP BY statements
// whose groups go inactive mid-scan. On those the default strategy once
// ran a lookahead at one worker and per-block probes at more, and
// fetched 3 699 blocks against 3 347 (skew-having), 2 548 against 2 099
// (skew-top1).
func TestPublicParallelEquivalence(t *testing.T) {
	resident := map[string]*Table{"flights": smallFlights(t), "skewed": skewedGroups(t)}
	outOfCore := map[string]*Table{}
	for name, tab := range resident {
		pool := NewBufferPool(1 << 14)
		ooc, err := OpenTable(writeTempTable(t, tab), pool)
		if err != nil {
			t.Fatal(err)
		}
		defer closeOutOfCore(t, ooc, pool)
		outOfCore[name] = ooc
	}
	ctx := context.Background()
	cases := []struct {
		name, sql string
		opts      []Option
		stopAt    int // abort from the progress callback at this look
	}{
		{name: "avg-relerr", sql: "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%"},
		{name: "sum-having", sql: "SELECT SUM(DepDelay) FROM flights GROUP BY Airline HAVING SUM(DepDelay) > 2000"},
		{name: "count-abswidth", sql: "SELECT COUNT(*) FROM flights WHERE DepTime > 1500 WITHIN ABS 3000"},
		{name: "avg-grouped-topk", sql: "SELECT AVG(DepDelay) FROM flights GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 3"},
		{name: "avg-maxrows", sql: "SELECT AVG(DepDelay) FROM flights GROUP BY Airline", opts: []Option{WithMaxRows(9777)}},
		{name: "avg-abort", sql: "SELECT AVG(DepDelay) FROM flights GROUP BY Airline", stopAt: 4},
		{name: "skew-having", sql: "SELECT AVG(v) FROM skewed GROUP BY g HAVING AVG(v) > 0"},
		{name: "skew-top1", sql: "SELECT AVG(v) FROM skewed GROUP BY g ORDER BY AVG(v) DESC LIMIT 1"},
		{name: "skew-within", sql: "SELECT AVG(v), SUM(v) FROM skewed GROUP BY g WITHIN 20%"},
		{name: "skew-composite-having", sql: "SELECT AVG(v) FROM skewed GROUP BY h, g HAVING AVG(v) > 0"},
	}
	type outcome struct {
		res      *Result
		progress []Progress
	}
	for _, tabs := range []struct {
		name string
		by   map[string]*Table
	}{{"resident", resident}, {"evicting-pool", outOfCore}} {
		eng := NewEngine()
		for name, tab := range tabs.by {
			if err := eng.Register(name, tab); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range []struct {
			name string
			opts []Option
		}{
			{"default", nil},
			{"scan", []Option{WithStrategy(ScanStrategy)}},
		} {
			for _, tc := range cases {
				run := func(sqlTail string, par ...Option) outcome {
					var out outcome
					opts := append([]Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(1)}, mode.opts...)
					opts = append(append(opts, tc.opts...), par...)
					opts = append(opts, WithProgress(func(p Progress) bool {
						out.progress = append(out.progress, p)
						return tc.stopAt == 0 || p.Round < tc.stopAt
					}))
					res, err := eng.Query(ctx, tc.sql+sqlTail, opts...)
					if err != nil {
						t.Fatalf("%s/%s/%s%s: %v", tabs.name, mode.name, tc.name, sqlTail, err)
					}
					out.res = stripTimes(res)
					return out
				}
				base := run("")
				for name, got := range map[string]outcome{
					"WithParallelism(8)": run("", WithParallelism(8)),
					"PARALLEL 4":         run(" PARALLEL 4"),
				} {
					if !reflect.DeepEqual(base.res, got.res) {
						t.Errorf("%s/%s/%s: %s differs from no option: %d blocks fetched against %d",
							tabs.name, mode.name, tc.name, name, got.res.BlocksFetched, base.res.BlocksFetched)
					}
					if !reflect.DeepEqual(base.progress, got.progress) {
						t.Errorf("%s/%s/%s: %s: progress stream differs from no option (%d against %d looks)",
							tabs.name, mode.name, tc.name, name, len(got.progress), len(base.progress))
					}
				}
			}
		}
	}
}

// TestParallelHintSQL checks that the retired PARALLEL n clause still
// parses through Engine.Query, still rejects a worker count that is not
// a positive integer, and changes nothing.
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

	if _, err := eng.Query(ctx, q+" PARALLEL 0", common...); err == nil {
		t.Error("PARALLEL 0 accepted")
	}
	if _, err := eng.Query(ctx, q+" PARALLEL x", common...); err == nil {
		t.Error("PARALLEL x accepted")
	}
}

// TestQueryExactParallel checks that a PARALLEL hint on an EXACT
// statement still parses, that QueryExact accepts WithParallelism, and
// that neither changes the answer by a bit. The hint still parses on the
// approximate run of the same statement, which exhausts onto the same
// values.
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
