package exact

import (
	"math"
	"testing"

	"fastframe/internal/query"
)

func TestRunParallelMatchesRun(t *testing.T) {
	tab := buildTable(t)
	queries := []query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}}, Stop: query.Exhaust()},
		{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}}, GroupBy: []string{"g"}, Stop: query.Exhaust()},
		{Aggs: []query.Aggregate{{Kind: query.Sum, Column: "w"}},
			Pred: query.Predicate{}.AndCatEquals("g", "a").AndRange("v", 10, 80),
			Stop: query.Exhaust()},
		{Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: query.Predicate{}.AndCatIn("h", "x"),
			Stop: query.Exhaust()},
		{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "v"}},
			GroupBy: []string{"g", "h"}, Stop: query.Exhaust()},
	}
	for _, workers := range []int{1, 3, 8, 1000} {
		for qi, q := range queries {
			seq, err := Run(tab, q)
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunParallel(tab, q, workers)
			if err != nil {
				t.Fatalf("workers=%d q=%d: %v", workers, qi, err)
			}
			if len(par.Groups) != len(seq.Groups) {
				t.Fatalf("workers=%d q=%d: %d groups vs %d", workers, qi, len(par.Groups), len(seq.Groups))
			}
			for i, g := range par.Groups {
				want := seq.Groups[i]
				if g.Key != want.Key || g.Count != want.Count {
					t.Errorf("workers=%d q=%d group %d: %+v vs %+v", workers, qi, i, g, want)
				}
				for k := range want.Stats {
					if math.Abs(g.Stats[k]-want.Stats[k]) > 1e-9*math.Max(1, math.Abs(want.Stats[k])) {
						t.Errorf("workers=%d q=%d group %s: stat %d %v vs %v", workers, qi, g.Key, k, g.Stats[k], want.Stats[k])
					}
				}
			}
		}
	}
}

func TestRunParallelDefaultsWorkers(t *testing.T) {
	tab := buildTable(t)
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, Stop: query.Exhaust()}
	res, err := RunParallel(tab, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Count != 120 {
		t.Errorf("count = %d", res.Groups[0].Count)
	}
}

func TestRunParallelValidation(t *testing.T) {
	tab := buildTable(t)
	bad := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg}}, Stop: query.Exhaust()}
	if _, err := RunParallel(tab, bad, 2); err == nil {
		t.Error("invalid query accepted")
	}
	missing := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "ghost"}}, Stop: query.Exhaust()}
	if _, err := RunParallel(tab, missing, 2); err == nil {
		t.Error("missing column accepted")
	}
}
