package exec

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exact"
	"fastframe/internal/query"
	"fastframe/internal/table"
	"fastframe/internal/testutil"
)

// buildTestTable generates a small synthetic "flights-like" table:
// five airlines with well-separated mean values, ten origins with
// skewed populations, and a time column correlated with nothing.
func buildTestTable(tb testing.TB, rows int, seed uint64) *table.Table {
	tb.Helper()
	return buildTestTableBlocks(tb, rows, seed, 25)
}

// buildTestTableBlocks is buildTestTable with a chosen block size.
func buildTestTableBlocks(tb testing.TB, rows int, seed uint64, blockSize int) *table.Table {
	tb.Helper()
	return buildTestTableCopies(tb, rows, seed, blockSize)
}

// buildTestTableCopies is buildTestTableBlocks plus one float column per
// name in copies, each an exact copy of "value" with its catalog bounds.
// The other columns and the row order are those of the table without
// the copies.
func buildTestTableCopies(tb testing.TB, rows int, seed uint64, blockSize int, copies ...string) *table.Table {
	tb.Helper()
	testutil.GoroutineBaseline(tb)
	cols := []table.ColumnSpec{
		{Name: "value", Kind: table.Float},
		{Name: "time", Kind: table.Float},
		{Name: "airline", Kind: table.Categorical},
		{Name: "origin", Kind: table.Categorical},
	}
	for _, c := range copies {
		cols = append(cols, table.ColumnSpec{Name: c, Kind: table.Float})
	}
	schema := table.MustSchema(cols...)
	rng := rand.New(rand.NewPCG(seed, 99))
	airlines := []string{"AA", "BB", "CC", "DD", "EE"}
	airlineMean := []float64{2, 6, 10, 14, 18}
	origins := []string{"O0", "O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9"}

	b := table.NewBuilder(schema, blockSize)
	for i := 0; i < rows; i++ {
		a := rng.IntN(len(airlines))
		// Skewed origins: O0 gets half the rows, the rest split the tail.
		var o int
		if rng.Float64() < 0.5 {
			o = 0
		} else {
			o = 1 + rng.IntN(len(origins)-1)
		}
		v := airlineMean[a] + rng.NormFloat64()*2 + float64(o)*0.1
		floats := map[string]float64{"value": v, "time": rng.Float64() * 2400}
		for _, c := range copies {
			floats[c] = v
		}
		err := b.Append(table.Row{
			Floats: floats,
			Cats:   map[string]string{"airline": airlines[a], "origin": origins[o]},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	// Catalog bounds much wider than the data, the regime where
	// RangeTrim matters.
	for _, c := range append([]string{"value"}, copies...) {
		b.WidenBounds(c, -100, 200)
	}
	tab, err := b.Build(rng)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

func bernsteinRT() ci.Bounder {
	return core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
}

func testOpts(b ci.Bounder) Options {
	return Options{
		Bounder:   b,
		Delta:     1e-9,
		RoundRows: 500,
	}
}

// equivQueries is the table of query shapes the equivalence property is
// checked over: every aggregate kind, grouped and ungrouped views,
// predicates, expression aggregates, and every stopping family.
func equivQueries() []query.Query {
	return []query.Query{
		{
			Name: "avg-ungrouped-relwidth",
			Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Stop: query.RelWidth(0.05),
		},
		{
			Name:    "sum-grouped-threshold",
			Aggs:    []query.Aggregate{{Kind: query.Sum, Column: "value"}},
			GroupBy: []string{"airline"},
			Stop:    query.Threshold(1000),
		},
		{
			Name: "count-pred-abswidth",
			Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: query.Predicate{}.AndGreater("time", 1200),
			Stop: query.AbsWidth(2000),
		},
		{
			Name:    "avg-grouped-pred-topk",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred:    query.Predicate{}.AndCatIn("origin", "O0", "O2", "O4"),
			GroupBy: []string{"airline"},
			Stop:    query.TopK(2),
		},
		{
			Name:    "avg-two-group-exhaust",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			GroupBy: []string{"airline", "origin"},
			Stop:    query.Exhaust(),
		},
		{
			Name: "avg-fixed-samples",
			Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred: query.Predicate{}.AndCatIn("airline", "CC"),
			Stop: query.FixedSamples(2000),
		},
	}
}

// stripDuration zeroes the wall-clock field so Results can be compared
// byte for byte.
func stripDuration(r *Result) *Result {
	r.Duration = 0
	return r
}

// fixedOpts is a base configuration with a fixed start block, so that
// two runs of one query can be compared byte for byte.
func fixedOpts() Options {
	return Options{
		Bounder:    bernsteinRT(),
		Delta:      1e-9,
		RoundRows:  1000,
		StartBlock: 17,
	}
}

// captureRounds hooks OnRound to record every snapshot (the Progress
// stream) while letting the scan run.
func captureRounds(opts *Options) *[]RoundSnapshot {
	snaps := &[]RoundSnapshot{}
	opts.OnRound = func(s RoundSnapshot) bool {
		*snaps = append(*snaps, s)
		return true
	}
	return snaps
}

// newTestEngine builds an engine for driving by hand, one advance at a
// time, as RunContext would build it for o.
func newTestEngine(tb testing.TB, tab *table.Table, q query.Query, o Options) *engine {
	tb.Helper()
	e, err := newEngine(tab, q, o.withDefaults())
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func TestRunValidation(t *testing.T) {
	tab := buildTestTable(t, 1000, 1)
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, Stop: query.AbsWidth(1)}
	if _, err := Run(tab, q, Options{}); err == nil {
		t.Error("nil bounder accepted")
	}
	bad := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg}}, Stop: query.AbsWidth(1)}
	if _, err := Run(tab, bad, testOpts(bernsteinRT())); err == nil {
		t.Error("invalid query accepted")
	}
	missing := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "nope"}}, Stop: query.AbsWidth(1)}
	if _, err := Run(tab, missing, testOpts(bernsteinRT())); err == nil {
		t.Error("missing column accepted")
	}
	badGroup := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"value"}, // float column cannot group
		Stop:    query.AbsWidth(1),
	}
	if _, err := Run(tab, badGroup, testOpts(bernsteinRT())); err == nil {
		t.Error("GROUP BY on float column accepted")
	}
}

func TestUngroupedKnownN(t *testing.T) {
	tab := buildTestTable(t, 30000, 2)
	q := query.Query{
		Name: "avg-all",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.AbsWidth(2.0),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.Run(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := ex.Groups[0].Stats[0]
	if len(res.Groups) != 1 {
		t.Fatalf("got %d groups", len(res.Groups))
	}
	g := res.Groups[0]
	if !g.Aggs[0].Interval.Contains(truth) {
		t.Errorf("interval [%v,%v] misses exact avg %v", g.Aggs[0].Interval.Lo, g.Aggs[0].Interval.Hi, truth)
	}
	if !res.Stopped {
		t.Error("query did not stop early")
	}
	if g.Aggs[0].Interval.Width() >= 2.0 {
		t.Errorf("stopped with width %v >= 2.0", g.Aggs[0].Interval.Width())
	}
	if res.BlocksFetched >= tab.Layout().NumBlocks() {
		t.Error("early stopping fetched every block")
	}
}

func TestPredicateFilteredAvg(t *testing.T) {
	tab := buildTestTable(t, 30000, 3)
	q := query.Query{
		Name: "filtered",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}, {Kind: query.Count}},
		Pred: query.Predicate{}.AndCatIn("airline", "CC").AndGreater("time", 1200),
		Stop: query.AbsWidth(2.0),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	truth := ex.Groups[0].Stats[0]
	if !res.Groups[0].Aggs[0].Interval.Contains(truth) {
		t.Errorf("interval [%v,%v] misses %v", res.Groups[0].Aggs[0].Interval.Lo, res.Groups[0].Aggs[0].Interval.Hi, truth)
	}
	// Count interval must contain the exact view size.
	if c, iv := float64(ex.Groups[0].Count), res.Groups[0].Aggs[1].Interval; !iv.Contains(c) {
		t.Errorf("count interval [%v,%v] misses %v", iv.Lo, iv.Hi, c)
	}
}

func TestEmptyPredicateValue(t *testing.T) {
	tab := buildTestTable(t, 2000, 4)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("airline", "ZZ"), // not in dict
		Stop: query.AbsWidth(1),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("empty view produced %d groups", len(res.Groups))
	}
	if res.BlocksFetched != 0 {
		t.Errorf("empty view fetched %d blocks", res.BlocksFetched)
	}
}

func TestGroupByThreshold(t *testing.T) {
	tab := buildTestTable(t, 40000, 5)
	q := query.Query{
		Name:    "having",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline"},
		Stop:    query.Threshold(8), // between CC (10) and BB (6)
	}
	for _, strategy := range []Strategy{Scan, Active} {
		opts := testOpts(bernsteinRT())
		opts.Strategy = strategy
		res, err := Run(tab, q, opts)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		ex, _ := exact.Run(tab, q)
		if len(res.Groups) != 5 {
			t.Fatalf("%v: got %d groups, want 5", strategy, len(res.Groups))
		}
		for _, g := range res.Groups {
			truth := ex.Group(g.Key).Stats[0]
			if !g.Aggs[0].Interval.Contains(truth) {
				t.Errorf("%v: group %s interval [%v,%v] misses %v", strategy, g.Key, g.Aggs[0].Interval.Lo, g.Aggs[0].Interval.Hi, truth)
			}
			// The decided side must match the truth.
			if g.Aggs[0].Interval.Lo > 8 && truth <= 8 {
				t.Errorf("%v: group %s wrongly decided above threshold", strategy, g.Key)
			}
			if g.Aggs[0].Interval.Hi < 8 && truth >= 8 {
				t.Errorf("%v: group %s wrongly decided below threshold", strategy, g.Key)
			}
		}
		if !res.Stopped && !res.Exhausted {
			t.Errorf("%v: neither stopped nor exhausted", strategy)
		}
	}
}

func TestGroupByTopK(t *testing.T) {
	tab := buildTestTable(t, 40000, 6)
	q := query.Query{
		Name:    "top2",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline"},
		Stop:    query.TopK(2),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	top2 := topKeysByEstimate(res, 2)
	exTop2 := exactTopKeys(ex, 2)
	for i := range top2 {
		if top2[i] != exTop2[i] {
			t.Errorf("top-2 = %v, exact = %v", top2, exTop2)
			break
		}
	}
}

func topKeysByEstimate(res *Result, k int) []string {
	gs := append([]GroupResult(nil), res.Groups...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Aggs[0].Interval.Estimate > gs[j].Aggs[0].Interval.Estimate })
	keys := make([]string, 0, k)
	for i := 0; i < k && i < len(gs); i++ {
		keys = append(keys, gs[i].Key)
	}
	return keys
}

func exactTopKeys(ex *exact.Result, k int) []string {
	gs := append([]exact.GroupValue(nil), ex.Groups...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Stats[0] > gs[j].Stats[0] })
	keys := make([]string, 0, k)
	for i := 0; i < k && i < len(gs); i++ {
		keys = append(keys, gs[i].Key)
	}
	return keys
}

func TestGroupByOrdered(t *testing.T) {
	tab := buildTestTable(t, 40000, 7)
	q := query.Query{
		Name:    "ordered",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline"},
		Stop:    query.Ordered(),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	got := topKeysByEstimate(res, 5)
	want := exactTopKeys(ex, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ordering %v, exact %v", got, want)
		}
	}
}

func TestCountQuery(t *testing.T) {
	tab := buildTestTable(t, 30000, 8)
	q := query.Query{
		Name: "count-cc",
		Aggs: []query.Aggregate{{Kind: query.Count}},
		Pred: query.Predicate{}.AndCatIn("airline", "CC"),
		Stop: query.RelWidth(0.2),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	truth := float64(ex.Groups[0].Count)
	g := res.Groups[0]
	if iv := g.Aggs[0].Interval; !iv.Contains(truth) {
		t.Errorf("count interval [%v,%v] misses %v", iv.Lo, iv.Hi, truth)
	}
}

func TestSumQuery(t *testing.T) {
	tab := buildTestTable(t, 30000, 9)
	q := query.Query{
		Name: "sum-cc",
		Aggs: []query.Aggregate{{Kind: query.Sum, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("airline", "CC"),
		Stop: query.RelWidth(0.3),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	truth := ex.Groups[0].Stats[0]
	g := res.Groups[0]
	if iv := g.Aggs[0].Interval; !iv.Contains(truth) {
		t.Errorf("sum interval [%v,%v] misses %v", iv.Lo, iv.Hi, truth)
	}
}

func TestExhaustionYieldsExact(t *testing.T) {
	tab := buildTestTable(t, 5000, 10)
	q := query.Query{
		Name:    "exhaust",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}, {Kind: query.Count}},
		GroupBy: []string{"airline"},
		Stop:    query.Exhaust(),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("not exhausted")
	}
	ex, _ := exact.Run(tab, q)
	for _, g := range res.Groups {
		if !g.Exact {
			t.Errorf("group %s not exact after exhaustion", g.Key)
		}
		want := ex.Group(g.Key)
		if math.Abs(g.Aggs[0].Interval.Estimate-want.Stats[0]) > 1e-9 {
			t.Errorf("group %s exact avg %v, want %v", g.Key, g.Aggs[0].Interval.Estimate, want.Stats[0])
		}
		if g.Aggs[0].Interval.Width() > 1e-6 {
			t.Errorf("group %s exact interval has width %v", g.Key, g.Aggs[0].Interval.Width())
		}
		if !g.Aggs[0].Interval.Contains(want.Stats[0]) {
			t.Errorf("group %s exact interval misses the two-pass truth", g.Key)
		}
		if c := g.Aggs[1].Interval; int(c.Estimate) != want.Count || c.Lo != c.Hi {
			t.Errorf("group %s exact count %+v, want the point %d", g.Key, c, want.Count)
		}
	}
}

func TestThresholdNeverStopsWhenMeanOnThreshold(t *testing.T) {
	testutil.GoroutineBaseline(t)
	// A group whose true mean equals the threshold can never be decided;
	// the engine must exhaust and return the exact (point) answer.
	schema := table.MustSchema(
		table.ColumnSpec{Name: "v", Kind: table.Float},
		table.ColumnSpec{Name: "g", Kind: table.Categorical},
	)
	b := table.NewBuilder(schema, 25)
	for i := 0; i < 4000; i++ {
		v := float64(i%2)*2 - 1 // alternating −1, +1: mean exactly 0
		_ = b.Append(table.Row{Floats: map[string]float64{"v": v}, Cats: map[string]string{"g": "only"}})
	}
	tab, err := b.Build(rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "v"}},
		GroupBy: []string{"g"},
		Stop:    query.Threshold(0),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Stopped {
		t.Errorf("Exhausted=%v Stopped=%v, want exhaustion", res.Exhausted, res.Stopped)
	}
	if got := res.Groups[0].Aggs[0].Interval.Estimate; got != 0 {
		t.Errorf("exact mean %v, want 0", got)
	}
}

func TestMaxRowsAborts(t *testing.T) {
	tab := buildTestTable(t, 20000, 11)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.AbsWidth(1e-9), // unreachable
	}
	opts := testOpts(bernsteinRT())
	opts.MaxRows = 3000
	res, err := Run(tab, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsCovered < 3000 || res.RowsCovered > 3000+25 {
		t.Errorf("RowsCovered = %d, want ≈3000", res.RowsCovered)
	}
	if res.Exhausted || res.Stopped {
		t.Error("MaxRows abort flagged as stopped/exhausted")
	}
}

func TestActiveScanningFetchesFewerBlocks(t *testing.T) {
	// Sparse-group regime: origin O9 holds ~5% of rows. A threshold
	// query on origins should let active scanning skip many blocks once
	// the dense groups are decided.
	tab := buildTestTable(t, 60000, 12)
	q := query.Query{
		Name:    "origins",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"origin"},
		Stop:    query.AbsWidth(1.5),
	}
	fetched := map[Strategy]int{}
	for _, s := range []Strategy{Scan, Active} {
		opts := testOpts(bernsteinRT())
		opts.Strategy = s
		res, err := Run(tab, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		fetched[s] = res.BlocksFetched
		ex, _ := exact.Run(tab, q)
		for _, g := range res.Groups {
			if truth := ex.Group(g.Key).Stats[0]; !g.Aggs[0].Interval.Contains(truth) {
				t.Errorf("%v: group %s misses truth", s, g.Key)
			}
		}
	}
	if fetched[Active] > fetched[Scan] {
		t.Errorf("Active fetched %d > Scan %d", fetched[Active], fetched[Scan])
	}
}

func TestAllBoundersProduceValidIntervals(t *testing.T) {
	tab := buildTestTable(t, 20000, 13)
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline"},
		Stop:    query.FixedSamples(1000),
	}
	ex, _ := exact.Run(tab, q)
	bounders := []ci.Bounder{
		ci.HoeffdingSerfling{},
		ci.EmpiricalBernsteinSerfling{},
		ci.AndersonDKW{},
		core.RangeTrim{Inner: ci.HoeffdingSerfling{}},
		core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
	}
	for _, b := range bounders {
		res, err := Run(tab, q, testOpts(b))
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		for _, g := range res.Groups {
			truth := ex.Group(g.Key).Stats[0]
			if !g.Aggs[0].Interval.Contains(truth) {
				t.Errorf("%s: group %s interval [%v,%v] misses %v", b.Name(), g.Key, g.Aggs[0].Interval.Lo, g.Aggs[0].Interval.Hi, truth)
			}
		}
	}
}

func TestRangeTrimFetchesLessThanPlain(t *testing.T) {
	// The headline effect: with loose catalog bounds, Bernstein+RT
	// terminates earlier than Bernstein on the same query.
	tab := buildTestTable(t, 60000, 14)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.AbsWidth(1.0),
	}
	plain, err := Run(tab, q, testOpts(ci.EmpiricalBernsteinSerfling{}))
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.RowsCovered > plain.RowsCovered {
		t.Errorf("Bernstein+RT covered %d rows > plain Bernstein %d", trimmed.RowsCovered, plain.RowsCovered)
	}
}

func TestCompositeGroupBy(t *testing.T) {
	tab := buildTestTable(t, 30000, 15)
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline", "origin"},
		Pred:    query.Predicate{}.AndGreater("time", 600),
		Stop:    query.TopK(3),
	}
	for _, s := range []Strategy{Scan, Active} {
		opts := testOpts(bernsteinRT())
		opts.Strategy = s
		res, err := Run(tab, q, opts)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		ex, _ := exact.Run(tab, q)
		for _, g := range res.Groups {
			want := ex.Group(g.Key)
			if want == nil {
				t.Errorf("%v: spurious group %q", s, g.Key)
				continue
			}
			if !g.Aggs[0].Interval.Contains(want.Stats[0]) {
				t.Errorf("%v: composite group %s misses truth", s, g.Key)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Scan.String() != "scan" || Active.String() != "active" {
		t.Error("Strategy.String wrong")
	}
	if Strategy(9).String() != "strategy?" {
		t.Error("unknown strategy string")
	}
}

func TestResultGroupLookup(t *testing.T) {
	r := &Result{Groups: []GroupResult{{Key: "a"}, {Key: "b"}}}
	if r.Group("b") == nil || r.Group("z") != nil {
		t.Error("Result.Group lookup wrong")
	}
}

func TestRandomStartPosition(t *testing.T) {
	tab := buildTestTable(t, 20000, 16)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.AbsWidth(2.0),
	}
	ex, _ := exact.Run(tab, q)
	for i := 0; i < 5; i++ {
		opts := testOpts(bernsteinRT())
		opts.StartBlock = rand.New(rand.NewPCG(uint64(i), 77)).IntN(tab.Layout().NumBlocks())
		res, err := Run(tab, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Groups[0].Aggs[0].Interval.Contains(ex.Groups[0].Stats[0]) {
			t.Errorf("start %d: interval misses truth", i)
		}
	}
}
