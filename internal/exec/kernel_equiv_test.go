package exec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// kernelQueries are the query shapes the vectorized kernel is pinned
// against the scalar reference over: every predicate-atom kind (cat
// equality, IN sets, float ranges — the zone-map path), grouped and
// ungrouped views, composite groups, and every aggregate kind.
func kernelQueries() []query.Query {
	return []query.Query{
		{
			Name: "avg-grouped-eq-range",
			Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred: query.Predicate{}.AndCatEquals("airline", "CC").
				AndRange("time", 300, 1800),
			GroupBy: []string{"origin"},
		},
		{
			Name:    "sum-grouped-in",
			Aggs:    []query.Aggregate{{Kind: query.Sum, Column: "value"}},
			Pred:    query.Predicate{}.AndCatIn("origin", "O0", "O3", "O5"),
			GroupBy: []string{"airline"},
		},
		{
			Name: "count-ungrouped-tail-range",
			Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: query.Predicate{}.AndRange("value", 15, math.Inf(1)),
		},
		{
			Name:    "avg-composite-group",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			GroupBy: []string{"airline", "origin"},
		},
	}
}

// runKernel executes one query with the chosen kernel (scalar reference
// interpreter vs vectorized block kernel) and strips wall-clock time.
func runKernel(t *testing.T, tab *table.Table, q query.Query, opts Options, scalar bool) *Result {
	t.Helper()
	scalarKernel = scalar
	defer func() { scalarKernel = false }()
	res, err := Run(tab, q, opts)
	if err != nil {
		t.Fatalf("%s scalar=%v: %v", q.Name, scalar, err)
	}
	return stripDuration(res)
}

// TestKernelEquivalence is the tentpole safety property: the vectorized
// block-at-a-time kernel produces BYTE-IDENTICAL results — estimates,
// intervals, rounds, coverage, blocks fetched — to the seed
// row-at-a-time interpreter, across strategies {Scan, Active},
// parallelism {1, 4}, termination modes {converged,
// aborted, exact}, query shapes, and three scramble seeds. Both kernels
// share block pruning (zone maps included), so the comparison isolates
// exactly the row-path rewrite: selection vectors, dense IN tables,
// columnar group IDs, and batched bounder updates.
func TestKernelEquivalence(t *testing.T) {
	type mode struct {
		name string
		stop query.Stop
		opts func(*Options)
	}
	modes := []mode{
		{name: "converged", stop: query.RelWidth(0.1)},
		{name: "aborted", stop: query.Exhaust(), opts: func(o *Options) {
			o.OnRound = func(s RoundSnapshot) bool { return s.Round < 2 }
		}},
		{name: "exact", stop: query.Exhaust()},
	}
	for _, seed := range []uint64{7, 21, 63} {
		tab := buildTestTable(t, 20_000, seed)
		for _, q := range kernelQueries() {
			for _, st := range []Strategy{Scan, Active} {
				for _, par := range []int{1, 4} {
					for _, m := range modes {
						qq := q
						qq.Stop = m.stop
						opts := Options{
							Bounder:     bernsteinRT(),
							Strategy:    st,
							Delta:       1e-9,
							RoundRows:   1000,
							StartBlock:  13,
							Parallelism: par,
						}
						if m.opts != nil {
							m.opts(&opts)
						}
						name := fmt.Sprintf("seed=%d/%s/%s/P=%d/%s", seed, q.Name, st, par, m.name)
						ref := runKernel(t, tab, qq, opts, true)
						vec := runKernel(t, tab, qq, opts, false)
						if !reflect.DeepEqual(ref, vec) {
							t.Errorf("%s: vectorized kernel diverged from scalar reference\nscalar: %+v\nvector: %+v", name, ref, vec)
						}
					}
				}
			}
		}
	}
}
