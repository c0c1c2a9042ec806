package exec

import (
	"math"
	"testing"

	"fastframe/internal/exact"
	"fastframe/internal/expr"
	"fastframe/internal/query"
)

func TestCatInPredicate(t *testing.T) {
	tab := buildTestTable(t, 30000, 31)
	q := query.Query{
		Name: "in-pred",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}, {Kind: query.Count}},
		Pred: query.Predicate{}.AndCatIn("airline", "AA", "CC", "EE"),
		Stop: query.AbsWidth(2),
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
	// AA, CC, EE means are 2, 10, 18 → ≈10.
	if math.Abs(truth-10) > 1 {
		t.Fatalf("IN ground truth %v implausible", truth)
	}
	if !res.Groups[0].Aggs[0].Interval.Contains(truth) {
		t.Errorf("IN-view interval [%v,%v] misses %v", res.Groups[0].Aggs[0].Interval.Lo, res.Groups[0].Aggs[0].Interval.Hi, truth)
	}
	// Count interval too.
	if c := float64(ex.Groups[0].Count); !res.Groups[0].Aggs[1].Interval.Contains(c) {
		t.Errorf("IN-view count interval misses %v", c)
	}
}

func TestCatInUnknownValuesIgnored(t *testing.T) {
	tab := buildTestTable(t, 5000, 32)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("airline", "AA", "ZZ"), // ZZ absent
		Stop: query.Exhaust(),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("airline", "AA"),
		Stop: query.Exhaust(),
	})
	if math.Abs(res.Groups[0].Aggs[0].Interval.Estimate-ex.Groups[0].Stats[0]) > 1e-9 {
		t.Errorf("IN with unknown value != equality on known value: %v vs %v",
			res.Groups[0].Aggs[0].Interval.Estimate, ex.Groups[0].Stats[0])
	}
}

func TestCatInAllUnknownIsEmpty(t *testing.T) {
	tab := buildTestTable(t, 5000, 33)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("airline", "YY", "ZZ"),
		Stop: query.AbsWidth(1),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 || res.BlocksFetched != 0 {
		t.Errorf("all-unknown IN fetched %d blocks, %d groups", res.BlocksFetched, len(res.Groups))
	}
}

func TestCatInMissingColumn(t *testing.T) {
	tab := buildTestTable(t, 1000, 34)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("nope", "x"),
		Stop: query.Exhaust(),
	}
	if _, err := Run(tab, q, testOpts(bernsteinRT())); err == nil {
		t.Error("IN over missing column accepted")
	}
}

func TestExpressionAggregate(t *testing.T) {
	tab := buildTestTable(t, 30000, 35)
	// AVG(|value − 10|): a nonlinear derived aggregate.
	e := expr.Abs{X: expr.Sub{X: expr.Col{Name: "value"}, Y: expr.Const{Value: 10}}}
	q := query.Query{
		Name: "abs-dev",
		Aggs: []query.Aggregate{{Kind: query.Avg, Expr: e}},
		Stop: query.AbsWidth(2),
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
	if !res.Groups[0].Aggs[0].Interval.Contains(truth) {
		t.Errorf("expression interval [%v,%v] misses %v", res.Groups[0].Aggs[0].Interval.Lo, res.Groups[0].Aggs[0].Interval.Hi, truth)
	}
	if truth <= 0 {
		t.Errorf("expression ground truth %v implausible", truth)
	}
}

func TestExpressionAggregateDerivedBoundsUsed(t *testing.T) {
	// (value)² over catalog [-100, 200] derives [0, 40000]; the derived
	// lower bound 0 (not the naive square of the catalog bounds) must be
	// reflected in trivial intervals at zero samples... observable as
	// the interval never dipping below 0.
	tab := buildTestTable(t, 20000, 36)
	e := expr.Square{X: expr.Col{Name: "value"}}
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Expr: e}},
		Pred: query.Predicate{}.AndCatIn("airline", "BB"),
		Stop: query.RelWidth(0.8),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Aggs[0].Interval.Lo < 0 {
		t.Errorf("squared aggregate lower bound %v < 0: derived bounds not applied", res.Groups[0].Aggs[0].Interval.Lo)
	}
	ex, _ := exact.Run(tab, q)
	if !res.Groups[0].Aggs[0].Interval.Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("squared aggregate interval misses truth %v", ex.Groups[0].Stats[0])
	}
}

func TestExpressionAggregateGroupBy(t *testing.T) {
	tab := buildTestTable(t, 30000, 37)
	e := expr.Mul{X: expr.Const{Value: 2}, Y: expr.Col{Name: "value"}}
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Expr: e}},
		GroupBy: []string{"airline"},
		Stop:    query.FixedSamples(1000),
	}
	res, err := Run(tab, q, testOpts(bernsteinRT()))
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	for _, g := range res.Groups {
		truth := ex.Group(g.Key).Stats[0]
		if !g.Aggs[0].Interval.Contains(truth) {
			t.Errorf("group %s: 2·value interval misses %v", g.Key, truth)
		}
	}
}

func TestExpressionAggregateMissingColumn(t *testing.T) {
	tab := buildTestTable(t, 1000, 38)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Expr: expr.Col{Name: "ghost"}}},
		Stop: query.Exhaust(),
	}
	if _, err := Run(tab, q, testOpts(bernsteinRT())); err == nil {
		t.Error("expression over missing column accepted")
	}
	if _, err := exact.Run(tab, q); err == nil {
		t.Error("exact expression over missing column accepted")
	}
}
