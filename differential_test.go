package fastframe

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fastframe/internal/exact"
	"fastframe/internal/flights"
	"fastframe/internal/query"
)

// diffCase is one statement of the differential test. A case with sql
// set also runs that statement through an Engine, which must answer
// byte-identically to q.
type diffCase struct {
	name string
	q    QueryBuilder
	sql  string
}

// namedTable is one side of a comparison: the resident table or its
// out-of-core twin.
type namedTable struct {
	name string
	tab  *Table
}

// differentialCases crosses one SELECT list holding every aggregate kind
// with the predicate forms and the groupings, then adds every kind alone
// and a star-join view: the SQL JOIN with a dimension predicate, and as
// its builder twin WhereIn over the keys the test's attribute maps
// select.
func differentialCases(t *testing.T, tab *Table) []diffCase {
	t.Helper()
	expr := Col("DepDelay").Add(Col("DepTime").Mul(Const(0.01)))
	kinds := []struct {
		name string
		q    QueryBuilder
	}{
		{"avg", Avg("DepDelay")},
		{"sum", Sum("DepDelay")},
		{"count", CountRows()},
		{"median", Median("DepDelay")},
		{"p90", PercentileOf("DepDelay", 0.9)},
		{"var", Var("DepDelay")},
		{"stddev", Stddev("DepDelay")},
		{"distinct", CountDistinct("Airline")},
		{"avg-expr", AvgExpr(expr)},
	}
	all := kinds[0].q
	for _, k := range kinds[1:] {
		all = Select(all, k.q)
	}
	preds := []struct {
		name string
		on   func(QueryBuilder) QueryBuilder
	}{
		{"all", func(q QueryBuilder) QueryBuilder { return q }},
		{"eq", func(q QueryBuilder) QueryBuilder { return q.Where("Origin", "ORD") }},
		{"in-absent", func(q QueryBuilder) QueryBuilder { return q.WhereIn("Origin", "LAX", "no such airport", "SFO") }},
		{"range", func(q QueryBuilder) QueryBuilder { return q.WhereRange("DepTime", 900, 1500) }},
		{"empty", func(q QueryBuilder) QueryBuilder { return q.Where("Origin", "no such airport") }},
	}
	groupings := []struct {
		name string
		cols []string
	}{
		{"global", nil},
		{"by1", []string{"Airline"}},
		{"by2", []string{"DayOfWeek", "Origin"}},
	}
	var cases []diffCase
	for _, p := range preds {
		for _, g := range groupings {
			cases = append(cases, diffCase{name: "every-kind/" + p.name + "/" + g.name, q: p.on(all).GroupBy(g.cols...)})
		}
	}
	for _, k := range kinds {
		cases = append(cases, diffCase{name: k.name + "/eq/global", q: k.q.Where("Origin", "ORD")})
	}
	west := airportRows(t, tab).keys(func(a map[string]string) bool { return a["region"] == "west" })
	return append(cases, diffCase{
		name: "every-kind/star-join/by1",
		q:    all.GroupBy("Airline").WhereIn("Origin", west...),
		sql: "SELECT AVG(DepDelay), SUM(DepDelay), COUNT(*), MEDIAN(DepDelay), PERCENTILE(DepDelay, 0.9), " +
			"VAR(DepDelay), STDDEV(DepDelay), COUNT(DISTINCT Airline), AVG(DepDelay + DepTime * 0.01) " +
			"FROM flights JOIN airports ON flights.Origin = airports.key " +
			"WHERE airports.region = 'west' GROUP BY Airline",
	})
}

// within reports |got − want| ≤ 1e-9 relative (absolute below 1).
func within(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// sameAsReference fails unless got has the reference's keys in its order,
// its counts, and its values within 1e-9 relative.
func sameAsReference(t *testing.T, label string, got *ExactResult, want *exact.Result) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Errorf("%s: %d groups, reference has %d", label, len(got.Groups), len(want.Groups))
		return
	}
	for i, w := range want.Groups {
		g := got.Groups[i]
		if g.Key != w.Key || g.Count != w.Count || len(g.Stats) != len(w.Stats) {
			t.Errorf("%s group %d: key %q count %d with %d values, reference %q %d with %d",
				label, i, g.Key, g.Count, len(g.Stats), w.Key, w.Count, len(w.Stats))
			continue
		}
		for k := range w.Stats {
			if !within(g.Stats[k], w.Stats[k]) {
				t.Errorf("%s group %q %s: %v, reference %v", label, g.Key, got.Aggs[k], g.Stats[k], w.Stats[k])
			}
		}
	}
}

// coversReference fails unless every interval of the approximate result
// holds the reference value of its group and aggregate (to the rounding
// of a sum taken in another order).
func coversReference(t *testing.T, label string, res *Result, want *exact.Result) {
	t.Helper()
	for _, g := range res.Groups {
		w := want.Group(g.Key)
		if w == nil {
			t.Errorf("%s: group %q is not in the reference", label, g.Key)
			continue
		}
		for k, iv := range g.Answers {
			v := w.Stats[k]
			if tol := 1e-9 * math.Max(1, math.Abs(v)); v < iv.Lo-tol || v > iv.Hi+tol {
				t.Errorf("%s group %q %s: [%v, %v] misses the reference %v", label, g.Key, res.Aggs[k], iv.Lo, iv.Hi, v)
			}
		}
	}
}

// TestDifferential checks the two evaluators against the naive reference
// interpreter on the 60 000-row Flights table: (a) QueryExact, resident
// and through a constantly-evicting pool, returns the reference's groups,
// counts and values; (b) the intervals of approximate runs cut off after
// a third of the table — resident, out of core, and degraded reads past
// quarantined blocks — all hold the reference value, for
// fixed seeds.
func TestDifferential(t *testing.T) {
	tab := smallFlights(t)
	path := writeTempTable(t, tab)
	ctx := context.Background()

	pool := NewBufferPool(1 << 14)
	ooc, err := OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)

	// A second handle on the file, one DepDelay block in ten unreadable.
	badPool := NewBufferPool(1 << 14)
	silentRetries(badPool)
	bad, err := OpenTable(path, badPool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, bad, badPool)
	depDelay := colIndex(t, tab, "DepDelay")
	bad.InjectStorageFault(func(col, block, attempt int) error {
		if col == depDelay && block%10 == 3 {
			return errors.New("injected permanent fault")
		}
		return nil
	})

	common := []Option{WithDelta(1e-9), WithRoundRows(2000), WithSeed(17), WithMaxRows(20000)}
	modes := []struct {
		name string
		tab  *Table
		opts []Option
	}{
		{"solo", tab, nil},
		{"ooc", ooc, nil},
		{"degraded", bad, []Option{WithDegradedReads()}},
	}

	degradedRuns := 0
	for _, c := range differentialCases(t, tab) {
		t.Run(c.name, func(t *testing.T) {
			want, err := exact.Run(tab.t, c.q.build())
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []namedTable{{"resident", tab}, {"out-of-core", ooc}} {
				got, err := side.tab.QueryExact(ctx, c.q)
				if err != nil {
					t.Fatalf("QueryExact %s: %v", side.name, err)
				}
				sameAsReference(t, "QueryExact "+side.name, got, want)
				if c.sql != "" {
					gotSQL, err := starEngine(t, side.tab).QueryExact(ctx, c.sql)
					if err != nil {
						t.Fatalf("SQL QueryExact %s: %v", side.name, err)
					}
					g, w := *gotSQL, *got
					g.Duration, w.Duration = 0, 0
					if !reflect.DeepEqual(g, w) {
						t.Errorf("SQL QueryExact %s differs from its builder twin:\n got %+v\nwant %+v", side.name, g, w)
					}
				}
			}
			for _, m := range modes {
				opts := append(common[:len(common):len(common)], m.opts...)
				res, err := m.tab.Query(ctx, c.q, opts...)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if res.Degraded {
					degradedRuns++
				}
				coversReference(t, m.name, res, want)
				if c.sql != "" {
					gotSQL, err := starEngine(t, m.tab).Query(ctx, c.sql, opts...)
					if err != nil {
						t.Fatalf("SQL %s: %v", m.name, err)
					}
					sameResult(t, "SQL "+m.name, gotSQL, res)
				}
			}
		})
	}
	if degradedRuns == 0 {
		t.Error("no run skipped a quarantined block: the degraded mode was not exercised")
	}
}

// TestBenchmarkTruth anchors the benchmark's ground truth. bench/check.go
// takes the exact answer of every statement from
// Engine.Prepare(…).QueryExact, which is the engine itself; here each
// statement shape the benchmark sends — the paper's F-q1…F-q9 and the
// other resident_mix templates, then the five wide_agg aggregate mixes —
// goes the same way, resident and through a pool of eight extents, and
// must return what the reference interpreter computes from the shape
// written down by hand (flights.Q1…Q9, so the SQL compiler is checked
// with it). Tails are left on: QueryExact ignores them.
func TestBenchmarkTruth(t *testing.T) {
	const (
		selAvg = "SELECT AVG(DepDelay) FROM flights"
		delay  = flights.ColDepDelay
	)
	aggs := func(kinds ...query.AggKind) []query.Aggregate {
		out := make([]query.Aggregate, len(kinds))
		for i, k := range kinds {
			out[i] = query.Aggregate{Kind: k, Column: delay}
		}
		return out
	}
	shapes := []struct {
		sql  string
		args []any
		want query.Query
	}{
		{selAvg + " WHERE Origin = ? WITHIN 50%", []any{"ORD"}, flights.Q1("ORD", 0.5)},
		{selAvg + " GROUP BY Airline HAVING AVG(DepDelay) > ?", []any{9.0}, flights.Q2(9)},
		{selAvg + " WHERE DepTime > ? GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2", []any{1400.0}, flights.Q3(1400)},
		{selAvg + " WHERE Origin = 'ORD'", nil, flights.Q4()}, // its CASE WHEN has no SQL form here
		{selAvg + " GROUP BY Origin HAVING AVG(DepDelay) < 0", nil, flights.Q5()},
		{selAvg + " WHERE DepTime > 1350 GROUP BY DayOfWeek, Origin ORDER BY AVG(DepDelay) DESC LIMIT 5", nil, flights.Q6()},
		{selAvg + " WHERE Airline = 'HP' GROUP BY DayOfWeek ORDER BY AVG(DepDelay)", nil, flights.Q7()},
		{selAvg + " GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 1", nil, flights.Q8()},
		{selAvg + " GROUP BY Airline ORDER BY AVG(DepDelay) DESC LIMIT 1", nil, flights.Q9()},
		{selAvg + " WITHIN 5%", nil, query.Query{Aggs: aggs(query.Avg)}},
		{"SELECT COUNT(*) FROM flights WHERE DepTime > ? WITHIN 3%", []any{1600.0},
			query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, Pred: query.Predicate{}.AndGreater(flights.ColDepTime, 1600)}},
		{"SELECT SUM(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 30%", nil,
			query.Query{Aggs: aggs(query.Sum), GroupBy: []string{flights.ColDayOfWeek}}},

		{"SELECT AVG(DepDelay), MEDIAN(DepDelay) FROM flights GROUP BY Airline", nil,
			query.Query{Aggs: aggs(query.Avg, query.Median), GroupBy: []string{flights.ColAirline}}},
		{"SELECT AVG(DepDelay), VAR(DepDelay), STDDEV(DepDelay) FROM flights GROUP BY DayOfWeek, Origin", nil,
			query.Query{Aggs: aggs(query.Avg, query.Var, query.Stddev), GroupBy: []string{flights.ColDayOfWeek, flights.ColOrigin}}},
		{"SELECT PERCENTILE(DepDelay, 0.9) FROM flights WHERE Origin = ?", []any{"DFW"},
			query.Query{Aggs: []query.Aggregate{{Kind: query.Percentile, Column: delay, P: 0.9}}, Pred: query.Predicate{}.AndCatEquals(flights.ColOrigin, "DFW")}},
		{"SELECT COUNT(DISTINCT Origin), AVG(DepDelay) FROM flights GROUP BY Airline", nil,
			query.Query{Aggs: []query.Aggregate{{Kind: query.CountDistinct, Column: flights.ColOrigin}, {Kind: query.Avg, Column: delay}}, GroupBy: []string{flights.ColAirline}}},
		{selAvg + " GROUP BY DayOfWeek, Origin ORDER BY AVG(DepDelay) DESC LIMIT 5", nil,
			query.Query{Aggs: aggs(query.Avg), GroupBy: []string{flights.ColDayOfWeek, flights.ColOrigin}}},
	}

	tab := smallFlights(t)
	const extentBytes = 64 * 25 * 8 // 64 blocks of 25 float64 rows
	pool := NewBufferPool(8 * extentBytes)
	ooc, err := OpenTable(writeTempTable(t, tab), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer closeOutOfCore(t, ooc, pool)
	ctx := context.Background()
	for _, side := range []namedTable{{"resident", tab}, {"out-of-core", ooc}} {
		eng := NewEngine()
		if err := eng.Register("flights", side.tab); err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			s.want.Stop = query.Exhaust()
			want, err := exact.Run(tab.t, s.want)
			if err != nil {
				t.Fatalf("%s: %v", s.sql, err)
			}
			stmt, err := eng.Prepare(s.sql)
			if err != nil {
				t.Fatalf("%s: %v", s.sql, err)
			}
			got, err := stmt.QueryExact(ctx, s.args...)
			if err != nil {
				t.Fatalf("%s, %s: %v", s.sql, side.name, err)
			}
			sameAsReference(t, s.sql+", "+side.name, got, want)
		}
	}
}
