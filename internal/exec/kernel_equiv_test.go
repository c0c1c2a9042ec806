package exec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fastframe/internal/blockstore"
	"fastframe/internal/exact"
	"fastframe/internal/expr"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// kernelQueries are the query shapes the vectorized kernel is pinned
// against the scalar reference over, and the shapes the golden file
// records: every predicate-atom kind (cat equality, IN sets — one
// value, several, and one present value among absent ones — and float
// ranges, the zone-map path), grouped and ungrouped views, composite
// groups, the AVG, SUM and COUNT aggregates, and one list of several
// aggregates over one column — the mean and square tracks VAR and
// STDDEV share with AVG and SUM. groupedInputKinds covers the other
// input kinds.
func kernelQueries() []query.Query {
	return []query.Query{
		{
			Name: "avg-grouped-eq-range",
			Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred: query.Predicate{}.AndCatIn("airline", "CC").
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
		{
			Name: "multi-agg-one-column",
			Aggs: []query.Aggregate{
				{Kind: query.Avg, Column: "value"}, {Kind: query.Var, Column: "value"},
				{Kind: query.Stddev, Column: "value"}, {Kind: query.Sum, Column: "value"},
				{Kind: query.Count},
			},
			GroupBy: []string{"airline"},
		},
		{
			Name: "sum-grouped-in1-range",
			Aggs: []query.Aggregate{{Kind: query.Sum, Column: "value"}},
			Pred: query.Predicate{}.AndCatIn("airline", "CC").
				AndRange("time", 600, 2000),
			GroupBy: []string{"origin"},
		},
		{
			Name:    "avg-grouped-in-absent",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred:    query.Predicate{}.AndCatIn("origin", "XX", "O3", "O99"),
			GroupBy: []string{"airline"},
		},
	}
}

// groupedInputKinds gathers every input kind under GROUP BY — an
// expression kernel, squares of an expression and of a column, a
// categorical code stream and retained observations — beside a COUNT,
// which gathers none, so that each gather the partitioned span buffer
// orders by group is pinned to the scalar reference. It stays out of
// kernelQueries, which keys the golden file.
func groupedInputKinds() query.Query {
	e := expr.Add{X: expr.Col{Name: "value"}, Y: expr.Mul{X: expr.Const{Value: 0.001}, Y: expr.Col{Name: "time"}}}
	return query.Query{
		Name: "every-input-grouped",
		Aggs: []query.Aggregate{
			{Kind: query.Avg, Expr: e},
			{Kind: query.Var, Expr: e},
			{Kind: query.Stddev, Column: "value"},
			{Kind: query.CountDistinct, Column: "origin"},
			{Kind: query.Median, Column: "value"},
			{Kind: query.Count},
		},
		Pred:    query.Predicate{}.AndRange("time", 300, 1800),
		GroupBy: []string{"airline"},
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
// termination modes {converged, aborted, exact}, query shapes, and
// three scramble seeds. Both kernels
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
		for _, q := range append(kernelQueries(), groupedInputKinds()) {
			for _, st := range []Strategy{Scan, Active} {
				for _, m := range modes {
					qq := q
					qq.Stop = m.stop
					opts := Options{
						Bounder:    bernsteinRT(),
						Strategy:   st,
						Delta:      1e-9,
						RoundRows:  1000,
						StartBlock: 13,
					}
					if m.opts != nil {
						m.opts(&opts)
					}
					name := fmt.Sprintf("seed=%d/%s/%s/%s", seed, q.Name, st, m.name)
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

// TestSpanKernelEquivalence pins the span kernel to the scalar reference
// where a span's blocks take every path of scanBlocks: pruned by a zone
// map, skipped by active scanning, fetched, and — out of core under
// DegradedReads — quarantined, one of them inside a span and one at the
// head of its extent. The walks start in the last extent and take in the
// table's short last block. Resident and out of core, the two kernels
// must agree byte for byte. The quarantined blocks' rows are NaN in
// their pinned frames: one of them in the selection would turn an AVG or
// SUM into NaN, so every interval must still hold its estimate and the
// reference value.
func TestSpanKernelEquivalence(t *testing.T) {
	tab := buildTestTable(t, 20_010, 17) // 801 blocks, the last of 10 rows
	nb := tab.Layout().NumBlocks()
	q := query.Query{
		Name: "span-paths",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}, {Kind: query.Count}, {Kind: query.Sum, Column: "value"}},
		Pred: query.Predicate{}.AndCatIn("airline", "AA", "BB", "CC", "DD").
			AndGreater("time", 2200), // one row in 12: a zone map rules out one block in 9
		GroupBy: []string{"origin"},
		Stop:    query.Exhaust(),
	}
	base := Options{Bounder: bernsteinRT(), Delta: 1e-9, RoundRows: 1000, StartBlock: 790, DegradedReads: true}
	pred, err := compilePredicate(tab, q.Pred, newColSet(tab))
	if err != nil {
		t.Fatal(err)
	}

	// The quarantined blocks: the middle of the first span of at least
	// three blocks, and the first of the first span at an extent's head.
	spans, _ := walkSpans(t, tab, q, base)
	inner, head, last := -1, -1, false
	for _, sp := range spans {
		lo, n := sp[0], sp[1]
		last = last || lo+n == nb
		if inner < 0 && n >= 3 {
			inner = lo + n/2
		} else if head < 0 && inner >= 0 && lo%tab.ExtentBlocks() == 0 {
			head = lo
		}
	}
	if !last || head < 0 || !pred.blockPossible(inner) || !pred.blockPossible(head) {
		t.Fatalf("spans %v: want one to end at the short last block %d, and quarantine candidates inner=%d head=%d the predicate admits", spans, nb-1, inner, head)
	}
	bad := map[int]bool{inner: true, head: true}

	ooc, pool := openOutOfCore(t, tab, 64<<10)
	valueCol := ooc.Schema().Lookup("value")
	ooc.Store().SetFault(func(col, block, attempt int) error {
		if col == valueCol && bad[block] {
			return errors.New("injected permanent fault")
		}
		return nil
	})
	var held []*blockstore.Frame
	for b := range bad {
		f, err := pool.PinFloat(ooc.Store(), valueCol, b+1) // a healthy block of b's extent
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
		rows := f.FloatRows(b, b+1)
		for i := range rows {
			rows[i] = math.NaN()
		}
	}

	ex, err := exact.Run(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	stops := []struct {
		name string
		stop query.Stop
	}{{"converged", query.FixedSamples(40)}, {"exhausted", query.Exhaust()}}
	for _, st := range []Strategy{Scan, Active} {
		for _, stop := range stops {
			for _, tb := range []*table.Table{tab, ooc} {
				qq := q
				qq.Stop = stop.stop
				name := fmt.Sprintf("%s/%s/ooc=%v", st, stop.name, tb.OutOfCore())
				o := base
				o.Strategy = st
				ref := runKernel(t, tb, qq, o, true)
				vec := runKernel(t, tb, qq, o, false)
				if !reflect.DeepEqual(ref, vec) {
					t.Errorf("%s: span kernel diverged from scalar reference\nscalar: %+v\nvector: %+v", name, ref, vec)
				}
				if !tb.OutOfCore() {
					continue
				}
				if vec.QuarantinedBlocks != len(bad) {
					t.Errorf("%s: %d blocks quarantined, want %d", name, vec.QuarantinedBlocks, len(bad))
				}
				for _, g := range vec.Groups {
					want := ex.Group(g.Key)
					for i, a := range g.Aggs {
						iv := a.Interval
						if want == nil || !(iv.Lo <= want.Stats[i] && want.Stats[i] <= iv.Hi) || !(iv.Lo <= iv.Estimate && iv.Estimate <= iv.Hi) {
							t.Errorf("%s group %q %s: %v in [%v, %v] misses the reference %+v", name, g.Key, a.Kind, iv.Estimate, iv.Lo, iv.Hi, want)
						}
					}
				}
				// Every path taken: of the blocks the walk visited, some were
				// pruned, and under Active some skipped once groups converge.
				visited, pruned := 0, 0
				for covered := 0; covered < vec.RowsCovered; visited++ {
					b := (base.StartBlock + visited) % nb
					s, end := tab.Layout().BlockBounds(b)
					covered += end - s
					if !pred.blockPossible(b) {
						pruned++
					}
				}
				skipped := visited - pruned - vec.BlocksFetched - vec.QuarantinedBlocks
				wantSkips := st == Active && stop.name == "converged"
				if pruned == 0 || vec.BlocksFetched == 0 || wantSkips != (skipped > 0) || skipped < 0 {
					t.Errorf("%s: of %d blocks visited %d pruned, %d skipped, %d fetched: want every path taken", name, visited, pruned, skipped, vec.BlocksFetched)
				}
			}
		}
	}
	for _, f := range held {
		pool.Unpin(f)
	}
	requireNoPins(t, pool, "after the span kernel runs")
}
