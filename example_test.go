package fastframe_test

import (
	"context"
	"fmt"

	"fastframe"
)

// ExampleAvg runs a filtered average with a relative-error stopping
// condition and checks it against the exact answer.
func ExampleAvg() {
	tab, err := fastframe.GenerateFlights(200_000, 1)
	if err != nil {
		panic(err)
	}
	q := fastframe.Avg("DepDelay").
		StopAtRelError(0.3)
	res, err := tab.Query(context.Background(), q, fastframe.WithDelta(1e-9), fastframe.WithRoundRows(5_000))
	if err != nil {
		panic(err)
	}
	ex, err := tab.QueryExact(context.Background(), q)
	if err != nil {
		panic(err)
	}
	g := res.Groups[0]
	fmt.Println("interval contains exact answer:", g.Answers[0].Contains(ex.Groups[0].Stats[0]))
	fmt.Println("stopped early:", res.Stopped && !res.Exhausted)
	// Output:
	// interval contains exact answer: true
	// stopped early: true
}

// ExampleQueryBuilder_GroupBy decides a HAVING threshold per group.
func ExampleQueryBuilder_GroupBy() {
	tab, err := fastframe.GenerateFlights(200_000, 2)
	if err != nil {
		panic(err)
	}
	q := fastframe.Avg("DepDelay").
		GroupBy("Airline").
		StopWhenThresholdDecided(9.3)
	res, err := tab.Query(context.Background(), q, fastframe.WithDelta(1e-9), fastframe.WithRoundRows(5_000))
	if err != nil {
		panic(err)
	}
	ex, err := tab.QueryExact(context.Background(), q)
	if err != nil {
		panic(err)
	}
	correct := true
	for _, key := range res.DecidedAbove(9.3) {
		if ex.Group(key).Stats[0] <= 9.3 {
			correct = false
		}
	}
	for _, key := range res.DecidedBelow(9.3) {
		if ex.Group(key).Stats[0] >= 9.3 {
			correct = false
		}
	}
	fmt.Println("ten airlines partitioned:", len(res.Groups) == 10)
	fmt.Println("every decision correct:", correct)
	// Output:
	// ten airlines partitioned: true
	// every decision correct: true
}

// ExampleNewMeanEstimator estimates a stream's mean with anytime-valid
// intervals, without the column store.
func ExampleNewMeanEstimator() {
	est, err := fastframe.NewMeanEstimator(fastframe.EstimatorConfig{
		A: 0, B: 100, N: 10_000, Delta: 1e-9, BatchRows: 1_000,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5_000; i++ {
		est.Observe(float64(i%11) * 5) // values 0,5,...,50; mean 25
	}
	iv := est.Interval()
	fmt.Println("contains true mean 25:", iv.Contains(25))
	fmt.Println("width under 40:", iv.Width() < 40)
	// Output:
	// contains true mean 25: true
	// width under 40: true
}

// ExampleCol derives range bounds for an expression aggregate
// (Appendix B's Example 1).
func ExampleCol() {
	tb, err := fastframe.NewTableBuilder(
		fastframe.Column{Name: "c1", Kind: fastframe.Float},
		fastframe.Column{Name: "c2", Kind: fastframe.Float},
		fastframe.Column{Name: "g", Kind: fastframe.Categorical},
	)
	if err != nil {
		panic(err)
	}
	_ = tb.AppendRow(map[string]float64{"c1": 0, "c2": 0}, map[string]string{"g": "x"})
	tb.WidenBounds("c1", -3, 1)
	tb.WidenBounds("c2", -1, 3)
	tab, err := tb.Build(1)
	if err != nil {
		panic(err)
	}
	e := fastframe.Const(2).Mul(fastframe.Col("c1")).
		Add(fastframe.Const(3).Mul(fastframe.Col("c2"))).
		Sub(fastframe.Const(1)).
		Square()
	lo, hi, err := tab.DerivedBounds(e)
	if err != nil {
		panic(err)
	}
	fmt.Printf("derived bounds: [%g, %g]\n", lo, hi)
	// Output:
	// derived bounds: [0, 100]
}
