package exec

import (
	"testing"

	"fastframe/internal/query"
)

// TestMultiAggMatchesSoloRuns: a multi-aggregate query answers every
// SELECT-list member from the same scan, and each member sees exactly
// the observations a solo run of that aggregate would see — so under a
// stopping rule that does not depend on the aggregates (fixed sample
// count), every per-group estimate matches its solo run bit for bit.
// (The interval widths legitimately differ: the multi-aggregate run
// splits δ_view across the list.)
func TestMultiAggMatchesSoloRuns(t *testing.T) {
	tab := buildTestTable(t, 20000, 7)
	aggs := []query.Aggregate{
		{Kind: query.Avg, Column: "value"},
		{Kind: query.Median, Column: "value"},
		{Kind: query.Var, Column: "value"},
		{Kind: query.CountDistinct, Column: "origin"},
	}
	opts := testOpts(bernsteinRT())
	multi := query.Query{
		Name:    "multi",
		Aggs:    aggs,
		GroupBy: []string{"airline"},
		Stop:    query.FixedSamples(900),
	}
	mres, err := Run(tab, multi, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range aggs {
		solo := query.Query{
			Name:    "solo",
			Aggs:    []query.Aggregate{a},
			GroupBy: []string{"airline"},
			Stop:    query.FixedSamples(900),
		}
		sres, err := Run(tab, solo, opts)
		if err != nil {
			t.Fatalf("solo %v: %v", a.Kind, err)
		}
		if len(sres.Groups) != len(mres.Groups) {
			t.Fatalf("solo %v: %d groups vs %d", a.Kind, len(sres.Groups), len(mres.Groups))
		}
		if sres.RowsCovered != mres.RowsCovered || sres.BlocksFetched != mres.BlocksFetched {
			t.Errorf("solo %v scan diverged: %d rows/%d blocks vs %d/%d",
				a.Kind, sres.RowsCovered, sres.BlocksFetched, mres.RowsCovered, mres.BlocksFetched)
		}
		for i := range mres.Groups {
			mg, sg := mres.Groups[i], sres.Groups[i]
			if mg.Key != sg.Key || mg.Samples != sg.Samples {
				t.Fatalf("solo %v group %d: key/samples %s/%d vs %s/%d",
					a.Kind, i, sg.Key, sg.Samples, mg.Key, mg.Samples)
			}
			if len(mg.Aggs) != len(aggs) || len(sg.Aggs) != 1 {
				t.Fatalf("answer list lengths: multi %d solo %d", len(mg.Aggs), len(sg.Aggs))
			}
			got, want := mg.Aggs[k].Interval.Estimate, sg.Aggs[0].Interval.Estimate
			if got != want {
				t.Errorf("%v group %q: multi estimate %v != solo %v", a.Kind, mg.Key, got, want)
			}
		}
	}
}
