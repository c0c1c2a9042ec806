package exec

import (
	"sync"
	"testing"

	"fastframe/internal/exact"
	"fastframe/internal/query"
)

// TestConcurrentQueriesShareTable runs many approximate queries — with
// different bounders, strategies and stopping conditions — against one
// shared Table from concurrent goroutines. Tables are documented as
// safe for concurrent readers; run with -race this verifies the engine
// keeps all mutable state per-query.
func TestConcurrentQueriesShareTable(t *testing.T) {
	tab := buildTestTable(t, 30000, 51)
	queries := []query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, Stop: query.AbsWidth(2)},
		{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"airline"}, Stop: query.Threshold(8)},
		{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"origin"}, Stop: query.TopK(2)},
		{Aggs: []query.Aggregate{{Kind: query.Count}}, Pred: query.Predicate{}.AndCatIn("airline", "BB"), Stop: query.RelWidth(0.3)},
		{Aggs: []query.Aggregate{{Kind: query.Sum, Column: "value"}}, Pred: query.Predicate{}.AndGreater("time", 1000), Stop: query.RelWidth(0.5)},
	}
	strategies := []Strategy{Scan, Active}
	exacts := make([]*exact.Result, len(queries))
	for i, q := range queries {
		ex, err := exact.Run(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		exacts[i] = ex
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for rep := 0; rep < 4; rep++ {
		for qi, q := range queries {
			for _, s := range strategies {
				wg.Add(1)
				go func(rep, qi int, q query.Query, s Strategy) {
					defer wg.Done()
					opts := testOpts(bernsteinRT())
					opts.Strategy = s
					opts.StartBlock = rep * 97
					res, err := Run(tab, q, opts)
					if err != nil {
						errs <- err
						return
					}
					for _, g := range res.Groups {
						truth := exacts[qi].Group(g.Key)
						if truth == nil {
							continue
						}
						if !g.Aggs[0].Interval.Contains(truth.Stats[0]) {
							t.Errorf("concurrent run missed truth for %s/%s", q.Aggs[0], g.Key)
						}
					}
				}(rep, qi, q, s)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
