package exec

import (
	"context"
	"math"
	"testing"

	"fastframe/internal/query"
)

// TestSteadyStateRoundZeroAllocs asserts the allocation-free-rounds
// property of the vectorized kernel: once an engine's scratch (selection
// vector, value/group buffers, stop-rule sort buffers, peek code
// buffers) is set up, running MORE rounds allocates NOTHING extra. It
// measures whole executions at two MaxRows cutoffs — identical setup,
// ~4× the steady-state rounds — with testing.AllocsPerRun; the
// difference is the per-round allocation count, which must be zero.
// Every case runs through both drivers of the one round engine: Run,
// and SharedDriver.Run — the route ffserved and every benchmark
// workload execute.
func TestSteadyStateRoundZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short mode")
	}
	tab := buildTestTable(t, 100_000, 3)
	cases := []struct {
		name  string
		q     query.Query
		strat Strategy
	}{
		{
			name: "ungrouped-range-scan",
			q: query.Query{
				Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				Pred: query.Predicate{}.AndRange("value", 5, math.Inf(1)),
				Stop: query.Exhaust(),
			},
			strat: Scan,
		},
		{
			name: "grouped-scan-topk",
			q: query.Query{
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				GroupBy: []string{"origin"},
				Stop:    query.TopK(3),
			},
			strat: Scan,
		},
		{
			name: "grouped-activesync-ordered",
			q: query.Query{
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				GroupBy: []string{"airline"},
				Stop:    query.Ordered(),
			},
			strat: Active,
		},
		{
			// Several aggregates per group, VAR's squared input among
			// them: every span partitions three input buffers and makes
			// five bounder dispatches per touched group.
			name: "grouped-multi-aggregate",
			q: query.Query{
				Aggs: []query.Aggregate{
					{Kind: query.Avg, Column: "value"}, {Kind: query.Sum, Column: "time"},
					{Kind: query.Var, Column: "value"}, {Kind: query.Count},
				},
				GroupBy: []string{"airline", "origin"},
				Stop:    query.Exhaust(),
			},
			strat: Scan,
		},
		{
			name: "grouped-activepeek",
			q: query.Query{
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				GroupBy: []string{"airline"},
				Stop:    query.Exhaust(),
			},
			strat: Active,
		},
	}
	drivers := []struct {
		name string
		run  func(query.Query, Options) (*Result, error)
	}{
		{"Run", func(q query.Query, o Options) (*Result, error) { return Run(tab, q, o) }},
		{"SharedDriver.Run", func(q query.Query, o Options) (*Result, error) {
			return NewSharedDriver(tab).Run(context.Background(), q, o)
		}},
	}
	for _, tc := range cases {
		for _, drv := range drivers {
			t.Run(tc.name+"/"+drv.name, func(t *testing.T) {
				opts := Options{
					Bounder:   bernsteinRT(),
					Strategy:  tc.strat,
					Delta:     1e-15,
					RoundRows: 2000,
				}
				// The runtime itself allocates now and then on goroutine
				// hand-offs (the driver goroutine) — more
				// often the more collections empty its caches mid-run: that
				// only ever adds, so the least of a few measurements is the
				// engine's own count.
				measure := func(maxRows int) float64 {
					o := opts
					o.MaxRows = maxRows
					least := math.Inf(1)
					for i := 0; i < 6; i++ {
						least = min(least, testing.AllocsPerRun(5, func() {
							if _, err := drv.run(tc.q, o); err != nil {
								t.Fatal(err)
							}
						}))
					}
					return least
				}
				few := measure(20_000)  // setup + ~10 rounds
				many := measure(90_000) // setup + ~45 rounds
				if extra := many - few; extra > 0 {
					t.Errorf("steady-state rounds allocate: %v extra allocs over ~35 rounds (few=%v many=%v)",
						extra, few, many)
				}
			})
		}
	}
}
