package exec

import (
	"testing"

	"fastframe/internal/exact"
	"fastframe/internal/query"
)

// TestExactCountBoundsOption verifies the hypergeometric N⁺ variant is
// correct and no more expensive in samples than the Lemma 5 default.
func TestExactCountBoundsOption(t *testing.T) {
	tab := buildTestTable(t, 40000, 41)
	q := query.Query{
		Name: "exact-count",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Pred: query.Predicate{}.AndCatEquals("airline", "BB"),
		Stop: query.AbsWidth(2),
	}
	ex, err := exact.Run(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := ex.Groups[0].Stats[0]

	base := testOpts(bernsteinRT())
	resLemma, err := Run(tab, q, base)
	if err != nil {
		t.Fatal(err)
	}
	exactOpts := base
	exactOpts.ExactCountBounds = true
	resExact, err := Run(tab, q, exactOpts)
	if err != nil {
		t.Fatal(err)
	}

	if !resExact.Groups[0].Aggs[0].Interval.Contains(truth) {
		t.Errorf("hypergeometric variant interval [%v,%v] misses %v",
			resExact.Groups[0].Aggs[0].Interval.Lo, resExact.Groups[0].Aggs[0].Interval.Hi, truth)
	}
	// The tighter N⁺ can only shrink (or match) the sampling cost.
	if resExact.RowsCovered > resLemma.RowsCovered {
		t.Errorf("exact count bounds covered more rows: %d > %d",
			resExact.RowsCovered, resLemma.RowsCovered)
	}
}

// TestExactCountBoundsCountQuery exercises the option on a COUNT query
// (the count interval itself still uses Lemma 5; only N⁺ changes) and a
// grouped threshold query.
func TestExactCountBoundsGrouped(t *testing.T) {
	tab := buildTestTable(t, 40000, 42)
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline"},
		Pred:    query.Predicate{}.AndGreater("time", 300),
		Stop:    query.Threshold(8),
	}
	opts := testOpts(bernsteinRT())
	opts.ExactCountBounds = true
	res, err := Run(tab, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exact.Run(tab, q)
	for _, g := range res.Groups {
		truth := ex.Group(g.Key).Stats[0]
		if !g.Aggs[0].Interval.Contains(truth) {
			t.Errorf("group %s interval misses %v", g.Key, truth)
		}
	}
}
