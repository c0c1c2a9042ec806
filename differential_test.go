package fastframe

import (
	"context"
	"errors"
	"math"
	"testing"

	old "fastframe/internal/exact"
	ref "fastframe/internal/exactref"
)

// diffCase is one statement of the differential test.
type diffCase struct {
	name string
	q    QueryBuilder
}

// differentialCases crosses one SELECT list holding every aggregate kind
// with the predicate forms and the groupings, then adds every kind alone
// and a star-join view (a dimension predicate compiled to a fact-side
// IN).
func differentialCases(t *testing.T, tab *Table) []diffCase {
	t.Helper()
	expr := Col("DepDelay").Add(Col("DepTime").Mul(Const(0.01)))
	kinds := []diffCase{
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
			cases = append(cases, diffCase{"every-kind/" + p.name + "/" + g.name, p.on(all).GroupBy(g.cols...)})
		}
	}
	for _, k := range kinds {
		cases = append(cases, diffCase{k.name + "/eq/global", k.q.Where("Origin", "ORD")})
	}
	ss := NewStarSchema(tab)
	if err := ss.Attach("Origin", airportsDim(t, tab)); err != nil {
		t.Fatal(err)
	}
	join, err := ss.WhereDimension(all.GroupBy("Airline"), "Origin", "region", "west")
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, diffCase{"every-kind/star-join/by1", join})
}

// within reports |got − want| ≤ 1e-9 relative (absolute below 1).
func within(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// sameAsReference fails unless got has the reference's keys in its order,
// its counts, and its values within 1e-9 relative.
func sameAsReference(t *testing.T, label string, got *ExactResult, want *ref.Result) {
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
func coversReference(t *testing.T, label string, res *Result, want *ref.Result) {
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
// a third of the table — solo, four scan workers, a shared scan, out of
// core, and degraded reads past quarantined blocks — all hold the
// reference value, for fixed seeds.
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
		{"solo", tab, []Option{WithParallelism(1)}},
		{"par4", tab, []Option{WithParallelism(4)}},
		{"shared", tab, []Option{WithSharedScan()}},
		{"ooc", ooc, nil},
		{"degraded", bad, []Option{WithDegradedReads()}},
	}

	degradedRuns := 0
	for _, c := range differentialCases(t, tab) {
		t.Run(c.name, func(t *testing.T) {
			want, err := ref.Run(tab.t, c.q.build())
			if err != nil {
				t.Fatal(err)
			}
			// The package this reference replaces agrees with it.
			was, err := old.Run(tab.t, c.q.build())
			if err != nil {
				t.Fatal(err)
			}
			asExact := &ExactResult{Aggs: aggsOf(c.q.build())}
			for _, g := range was.Groups {
				asExact.Groups = append(asExact.Groups, ExactGroup{Key: g.Key, Count: g.Count, Stats: g.Stats})
			}
			sameAsReference(t, "old internal/exact", asExact, want)

			for _, side := range []struct {
				name string
				tab  *Table
			}{{"resident", tab}, {"out-of-core", ooc}} {
				got, err := side.tab.QueryExact(ctx, c.q)
				if err != nil {
					t.Fatalf("QueryExact %s: %v", side.name, err)
				}
				sameAsReference(t, "QueryExact "+side.name, got, want)
			}
			for _, m := range modes {
				res, err := m.tab.Query(ctx, c.q, append(common[:len(common):len(common)], m.opts...)...)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if res.Degraded {
					degradedRuns++
				}
				coversReference(t, m.name, res, want)
			}
		})
	}
	if degradedRuns == 0 {
		t.Error("no run skipped a quarantined block: the degraded mode was not exercised")
	}
}
