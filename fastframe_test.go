package fastframe

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"fastframe/internal/testutil"
)

// smallFlights is the suite's table. Asking for it also arms the
// goroutine-leak check: when the test ends, every query, driver loop and
// stream it started must be gone.
func smallFlights(t testing.TB) *Table {
	t.Helper()
	testutil.GoroutineBaseline(t)
	tab, err := GenerateFlights(60000, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// fixedOpts is the fixed configuration the out-of-core and chaos suites
// compare runs under: ScanStrategy, δ = 1e-9, R = 2000 and seed 99.
func fixedOpts(extra ...Option) []Option {
	return append([]Option{
		WithStrategy(ScanStrategy),
		WithDelta(1e-9),
		WithRoundRows(2000),
		WithSeed(99),
	}, extra...)
}

// fastOpts is the suite's base configuration: a δ and round size that
// let a 60 000-row table converge.
func fastOpts() []Option {
	return []Option{WithDelta(1e-9), WithRoundRows(2000)}
}

func TestGenerateFlightsBasics(t *testing.T) {
	tab := smallFlights(t)
	if tab.NumRows() != 60000 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	if tab.NumBlocks() != (60000+24)/25 {
		t.Errorf("NumBlocks = %d", tab.NumBlocks())
	}
	a, b, err := tab.ColumnBounds("DepDelay")
	if err != nil {
		t.Fatal(err)
	}
	if a > -180 || b < 700 {
		t.Errorf("catalog bounds [%v,%v]", a, b)
	}
	if _, _, err := tab.ColumnBounds("Origin"); err == nil {
		t.Error("ColumnBounds on categorical accepted")
	}
	vals, err := tab.CategoricalValues("Airline")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 10 {
		t.Errorf("got %d airlines", len(vals))
	}
	if _, err := tab.CategoricalValues("DepDelay"); err == nil {
		t.Error("CategoricalValues on float accepted")
	}
}

func TestPublicEndToEnd(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.2).Named("ord-delay")
	res, err := tab.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := tab.QueryExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(ex.Groups) != 1 {
		t.Fatalf("group counts %d/%d", len(res.Groups), len(ex.Groups))
	}
	truth := ex.Groups[0].Stats[0]
	if !res.Groups[0].Answers[0].Contains(truth) {
		t.Errorf("interval %v misses exact %v", res.Groups[0].Answers[0], truth)
	}
	if res.Duration <= 0 || ex.Duration <= 0 {
		t.Error("durations not recorded")
	}
}

func TestAllPublicBounders(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").GroupBy("Airline").StopAfterSamples(800)
	ex, _ := tab.QueryExact(context.Background(), q)
	for _, b := range []Bounder{BernsteinRT, Bernstein, HoeffdingRT, Hoeffding, Anderson} {
		opts := append(fastOpts(), WithBounder(b))
		res, err := tab.Query(context.Background(), q, opts...)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		for _, g := range res.Groups {
			if truth := ex.Group(g.Key).Stats[0]; !g.Answers[0].Contains(truth) {
				t.Errorf("%v: group %s interval %v misses %v", b, g.Key, g.Answers[0], truth)
			}
		}
	}
	if Bounder(99).String() == "" {
		t.Error("unknown bounder String empty")
	}
	if _, err := (Bounder(99)).impl(); err == nil {
		t.Error("unknown bounder accepted")
	}
}

func TestAllPublicStrategies(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").GroupBy("Origin").StopWhenThresholdDecided(0)
	ex, _ := tab.QueryExact(context.Background(), q)
	for _, s := range []Strategy{ScanStrategy, ActiveStrategy} {
		opts := append(fastOpts(), WithStrategy(s))
		res, err := tab.Query(context.Background(), q, opts...)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, g := range res.Groups {
			truth := ex.Group(g.Key).Stats[0]
			if g.Answers[0].Lo > 0 && truth <= 0 {
				t.Errorf("%v: %s wrongly above 0", s, g.Key)
			}
			if g.Answers[0].Hi < 0 && truth >= 0 {
				t.Errorf("%v: %s wrongly below 0", s, g.Key)
			}
		}
	}
	for _, s := range []Strategy{ScanStrategy, ActiveStrategy, Strategy(9)} {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
	}
}

// TestSeedPinsStartBlock freezes the seed → start-block mapping:
// WithSeed(s) starts the scan at the block a PCG(s, 0x9a7) stream draws
// first over the table's blocks. Every recorded replay and every
// benchmark figure taken under a seed depends on these values.
func TestSeedPinsStartBlock(t *testing.T) {
	tab := smallFlights(t)
	want := []int{835, 588, 1317, 297, 2266, 1119, 1780, 715} // seeds 1…8, of 2400 blocks
	for i, w := range want {
		seed := uint64(i + 1)
		res, err := tab.Query(context.Background(), Avg("DepDelay"), WithSeed(seed), WithMaxRows(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.StartBlock != w {
			t.Errorf("WithSeed(%d) started at block %d, want %d", seed, res.StartBlock, w)
		}
	}
}

func TestQueryBuilderImmutability(t *testing.T) {
	base := Avg("DepDelay").GroupBy("Airline")
	a := base.StopWhenTopKSeparated(1)
	b := base.StopWhenBottomKSeparated(2)
	if a.build().Stop == b.build().Stop {
		t.Error("builders share stop state")
	}
	if len(base.build().Pred.CatIn) != 0 {
		t.Error("base was mutated")
	}
	c := base.Where("Airline", "HP")
	if len(base.build().Pred.CatIn) != 0 || len(c.build().Pred.CatIn) != 1 {
		t.Error("Where mutated the receiver")
	}
	s := c.String()
	if !strings.Contains(s, "AVG(DepDelay)") || !strings.Contains(s, "HP") {
		t.Errorf("String() = %q", s)
	}
}

func TestQueryBuilderVariants(t *testing.T) {
	tab := smallFlights(t)

	// SUM with a range predicate.
	qs := Sum("DepDelay").WhereRange("DepTime", 800, 1200).StopAtRelError(0.5)
	res, err := tab.Query(context.Background(), qs, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := tab.QueryExact(context.Background(), qs)
	if !res.Groups[0].Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("sum interval %v misses %v", res.Groups[0].Answers[0], ex.Groups[0].Stats[0])
	}

	// COUNT with WhereGreater.
	qc := CountRows().WhereGreater("DepTime", 2000).StopAtRelError(0.3)
	resC, err := tab.Query(context.Background(), qc, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	exC, _ := tab.QueryExact(context.Background(), qc)
	if !resC.Groups[0].Answers[0].Contains(float64(exC.Groups[0].Count)) {
		t.Errorf("count interval %v misses %d", resC.Groups[0].Answers[0], exC.Groups[0].Count)
	}

	// Ordered stop over a small group set.
	qo := Avg("DepDelay").Where("Airline", "HP").GroupBy("DayOfWeek").StopWhenOrdered()
	if _, err := tab.Query(context.Background(), qo, fastOpts()...); err != nil {
		t.Fatal(err)
	}

	// ScanAll gives exact results.
	qx := Avg("DepDelay").Where("Airline", "NW").ScanAll()
	resX, err := tab.Query(context.Background(), qx, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	exX, _ := tab.QueryExact(context.Background(), qx)
	if !resX.Groups[0].Exact {
		t.Error("ScanAll result not exact")
	}
	if math.Abs(resX.Groups[0].Answers[0].Estimate-exX.Groups[0].Stats[0]) > 1e-9 {
		t.Errorf("ScanAll avg %v != exact %v", resX.Groups[0].Answers[0].Estimate, exX.Groups[0].Stats[0])
	}
}

// TestRangeBoundsRefused: a range whose bounds are reversed or NaN is an
// error from Query and QueryExact alike, not an empty answer — the
// engine and the reference interpreter would read a NaN bound
// differently.
func TestRangeBoundsRefused(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	for _, q := range []QueryBuilder{
		CountRows().WhereRange("DepTime", math.NaN(), 1000),
		Avg("DepDelay").WhereRange("DepTime", 1000, 900),
	} {
		if _, err := tab.Query(ctx, q, fastOpts()...); err == nil || !strings.Contains(err.Error(), "lo <= hi") {
			t.Errorf("Query %s: err = %v, want a lo <= hi refusal", q, err)
		}
		if _, err := tab.QueryExact(ctx, q); err == nil || !strings.Contains(err.Error(), "lo <= hi") {
			t.Errorf("QueryExact %s: err = %v, want a lo <= hi refusal", q, err)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Groups: []GroupResult{{Key: "AA"}, {Key: "HP"}}}
	if r.Group("HP") == nil || r.Group("ZZ") != nil {
		t.Error("Result.Group lookup broken")
	}
	er := &ExactResult{Groups: []ExactGroup{{Key: "AA"}}}
	if er.Group("AA") == nil || er.Group("ZZ") != nil {
		t.Error("ExactResult.Group lookup broken")
	}
	iv := Interval{Lo: 1, Hi: 3, Estimate: 2}
	if iv.Width() != 2 || !iv.Contains(1) || iv.Contains(3.1) {
		t.Error("Interval helpers broken")
	}
	if !strings.Contains(iv.String(), "[1, 3]") {
		t.Errorf("Interval.String = %q", iv.String())
	}
}

func TestTableBuilderAPI(t *testing.T) {
	tb, err := NewTableBuilder(
		Column{Name: "x", Kind: Float},
		Column{Name: "g", Kind: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		err := tb.AppendRow(
			map[string]float64{"x": float64(i % 10)},
			map[string]string{"g": []string{"a", "b"}[i%2]},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	tb.WidenBounds("x", -100, 100)
	if tb.NumRows() != 1000 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	tab, err := tb.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	a, b, _ := tab.ColumnBounds("x")
	if a != -100 || b != 100 {
		t.Errorf("bounds [%v,%v]", a, b)
	}
	q := Avg("x").GroupBy("g").StopAtAbsError(1.5)
	res, err := tab.Query(context.Background(), q, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := tab.QueryExact(context.Background(), q)
	for _, g := range res.Groups {
		if truth := ex.Group(g.Key).Stats[0]; !g.Answers[0].Contains(truth) {
			t.Errorf("group %s misses truth", g.Key)
		}
	}
	// Duplicate column name rejected.
	if _, err := NewTableBuilder(Column{Name: "x", Kind: Float}, Column{Name: "x", Kind: Float}); err == nil {
		t.Error("duplicate columns accepted")
	}
}

func TestMeanEstimator(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]float64, 50000)
	truth := 0.0
	for i := range data {
		data[i] = rng.Float64() * 10
		truth += data[i]
	}
	truth /= float64(len(data))

	est, err := NewMeanEstimator(EstimatorConfig{A: 0, B: 10, N: len(data), Delta: 1e-9, BatchRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(len(data))
	for i, idx := range perm[:20000] {
		est.Observe(data[idx])
		if (i+1)%5000 == 0 {
			iv := est.Interval()
			if !iv.Contains(truth) {
				t.Fatalf("interval %v misses truth %v at %d samples", iv, truth, i+1)
			}
		}
	}
	if est.Samples() != 20000 {
		t.Errorf("Samples = %d", est.Samples())
	}
	final := est.Interval()
	if final.Width() > 1 {
		t.Errorf("final width %v too loose", final.Width())
	}

	// Validation.
	if _, err := NewMeanEstimator(EstimatorConfig{A: 5, B: 5}); err == nil {
		t.Error("A >= B accepted")
	}
	if _, err := NewMeanEstimator(EstimatorConfig{A: 0, B: 1, Bounder: Bounder(99)}); err == nil {
		t.Error("bad bounder accepted")
	}
}

func TestDerivedBoundsAPI(t *testing.T) {
	tb, err := NewTableBuilder(
		Column{Name: "c1", Kind: Float},
		Column{Name: "c2", Kind: Float},
		Column{Name: "g", Kind: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = tb.AppendRow(map[string]float64{"c1": 0, "c2": 0}, map[string]string{"g": "x"})
	tb.WidenBounds("c1", -3, 1)
	tb.WidenBounds("c2", -1, 3)
	tab, err := tb.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Example 1: (2c1 + 3c2 − 1)² → [0, 100].
	e := Const(2).Mul(Col("c1")).Add(Const(3).Mul(Col("c2"))).Sub(Const(1)).Square()
	lo, hi, err := tab.DerivedBounds(e)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 100 {
		t.Errorf("derived bounds [%v,%v], want [0,100]", lo, hi)
	}
	if got := e.Eval(map[string]float64{"c1": 1, "c2": 3}); got != 100 {
		t.Errorf("Eval = %v", got)
	}
	if !strings.Contains(e.String(), "^2") {
		t.Errorf("String = %q", e.String())
	}
	// Missing column.
	if _, _, err := tab.DerivedBounds(Col("nope").Abs().Neg()); err == nil {
		t.Error("missing column accepted")
	}
}
