// Micro-benchmarks of the engine's parts on a shared 2 M-row synthetic
// Flights scramble; "blocks/op" is the paper's hardware-independent cost
// metric. The paper's own claims in that metric are checked, not
// benchmarked, by TestPaperClaims (paper_claims_test.go).
//
//	go test -run '^$' -bench=. -benchmem
package fastframe

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exec"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// benchRows is the smallest scale at which the paper's regimes
// differentiate (views large enough that distribution-sensitive bounds
// terminate early while range-only bounds cannot).
const benchRows = 2_000_000

var (
	benchOnce  sync.Once
	benchTable *table.Table
)

func getBenchTable(b *testing.B) *table.Table {
	b.Helper()
	benchOnce.Do(func() {
		t, err := flights.Generate(flights.Config{Rows: benchRows, Seed: 42})
		if err != nil {
			panic(err)
		}
		benchTable = t
	})
	return benchTable
}

var (
	selectiveOnce sync.Once
	selectiveLo   float64
)

// selectiveThreshold returns the 99.9th percentile of DepDelay on the
// shared bench table: the cut that makes "DepDelay ≥ lo" select ~0.1%
// of rows, the regime where float zone maps prune most blocks.
func selectiveThreshold(b *testing.B, t *table.Table) float64 {
	b.Helper()
	selectiveOnce.Do(func() {
		col, err := t.Float(flights.ColDepDelay)
		if err != nil {
			panic(err)
		}
		vals := append([]float64(nil), col.Values...)
		sort.Float64s(vals)
		selectiveLo = vals[len(vals)*999/1000]
	})
	return selectiveLo
}

// BenchmarkSelectiveScan measures a highly selective float-range WHERE
// (the 99.9th-percentile tail of DepDelay) scanned to exhaustion: the
// workload where per-block float zone maps pay off, since a block with
// no tail value is pruned without being fetched. blocks/op is the
// hardware-independent cost metric next to ns/op and allocs/op.
func BenchmarkSelectiveScan(b *testing.B) {
	t := getBenchTable(b)
	lo := selectiveThreshold(b, t)
	q := query.Query{
		Name: "selective-scan",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: flights.ColDepDelay}},
		Pred: query.Predicate{}.AndRange(flights.ColDepDelay, lo, math.Inf(1)),
		Stop: query.Exhaust(),
	}
	bounder := core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	var blocks, rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(t, q, exec.Options{
			Bounder:   bounder,
			Strategy:  exec.Scan,
			Delta:     exec.DefaultDelta,
			RoundRows: 40_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		blocks, rows = res.BlocksFetched, res.RowsCovered
	}
	b.ReportMetric(float64(blocks), "blocks/op")
	b.ReportMetric(float64(rows), "rows/op")
}

// BenchmarkScanKernel measures the scan kernel's cost per row covered:
// AVG(DepDelay) over the whole 2 M-row table from block 0, with no
// predicate, a head airport's equality (the one-code compare pass),
// three head airports (the dense membership-table pass), a
// 45 %-selective DepTime range and a GROUP BY. It is the whole engine
// run to exhaustion, so the
// prune, bind, filter, group-ID gather, partition of the selection
// vector, input gather in group order and bounder update are all in it,
// and only the look closes are amortised away. group1 is the shape that
// partitions: its spans touch several airlines each.
func BenchmarkScanKernel(b *testing.B) {
	t := getBenchTable(b)
	col, err := t.Float(flights.ColDepTime)
	if err != nil {
		b.Fatal(err)
	}
	times := append([]float64(nil), col.Values...)
	sort.Float64s(times)
	shapes := []struct {
		name string
		pred query.Predicate
		grp  []string
	}{
		{name: "nopred"},
		{name: "cateq", pred: query.Predicate{}.AndCatIn(flights.ColOrigin, "ORD")},
		{name: "in3", pred: query.Predicate{}.AndCatIn(flights.ColOrigin, "ORD", "ATL", "DFW")},
		{name: "range45", pred: query.Predicate{}.AndRange(flights.ColDepTime, times[len(times)*55/100], math.Inf(1))},
		{name: "group1", grp: []string{flights.ColAirline}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			q := query.Query{
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: flights.ColDepDelay}},
				Pred:    s.pred,
				GroupBy: s.grp,
				Stop:    query.Exhaust(),
			}
			opts := exec.Options{
				Bounder:   core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
				Strategy:  exec.Scan,
				Delta:     exec.DefaultDelta,
				RoundRows: 40_000,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(t, q, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(t.NumRows()), "ns/row")
		})
	}
}

// BenchmarkMultiAggScan measures the tentpole economics of
// multi-aggregate SELECT lists: one scan feeding N per-group aggregate
// states versus N solo scans, at N ∈ {1, 2, 4, 8}. The stopping rule is
// a fixed sample count so every arm covers the same rows; the multi arm
// fetches each block once while the solo arm fetches it N times, so
// blocks/op (and wall time, on I/O-bound tables) should scale ~1 vs ~N.
func BenchmarkMultiAggScan(b *testing.B) {
	t := getBenchTable(b)
	allAggs := []query.Aggregate{
		{Kind: query.Avg, Column: flights.ColDepDelay},
		{Kind: query.Median, Column: flights.ColDepDelay},
		{Kind: query.Var, Column: flights.ColDepDelay},
		{Kind: query.CountDistinct, Column: flights.ColOrigin},
		{Kind: query.Sum, Column: flights.ColDepDelay},
		{Kind: query.Percentile, Column: flights.ColDepDelay, P: 0.9},
		{Kind: query.Stddev, Column: flights.ColDepDelay},
		{Kind: query.Count},
	}
	bounder := core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	opts := exec.Options{
		Bounder:   bounder,
		Strategy:  exec.Scan,
		Delta:     exec.DefaultDelta,
		RoundRows: 40_000,
	}
	const samples = 20_000 // per group; ~7 near-uniform DayOfWeek groups
	for _, n := range []int{1, 2, 4, 8} {
		aggs := allAggs[:n]
		b.Run("multi/N="+itoa(int64(n)), func(b *testing.B) {
			var blocks int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exec.Run(t, query.Query{
					Name:    "multi",
					Aggs:    aggs,
					GroupBy: []string{flights.ColDayOfWeek},
					Stop:    query.FixedSamples(samples),
				}, opts)
				if err != nil {
					b.Fatal(err)
				}
				blocks = res.BlocksFetched
			}
			b.ReportMetric(float64(blocks), "blocks/op")
		})
		b.Run("solo/N="+itoa(int64(n)), func(b *testing.B) {
			var blocks int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocks = 0
				for _, a := range aggs {
					res, err := exec.Run(t, query.Query{
						Name:    "solo",
						Aggs:    []query.Aggregate{a},
						GroupBy: []string{flights.ColDayOfWeek},
						Stop:    query.FixedSamples(samples),
					}, opts)
					if err != nil {
						b.Fatal(err)
					}
					blocks += res.BlocksFetched
				}
			}
			b.ReportMetric(float64(blocks), "blocks/op")
		})
	}
}

// BenchmarkScrambleBuild measures the one-time cost the architecture
// amortizes: synthesizing rows, shuffling them into a scramble, and
// building dictionaries, catalogs and block bitmap indexes.
func BenchmarkScrambleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := flights.Generate(flights.Config{Rows: 200_000, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
	b.ReportMetric(200_000, "rows/op")
}

// BenchmarkExactScan measures the raw full-scan throughput underlying
// the Exact baseline.
func BenchmarkExactScan(b *testing.B) {
	t := getBenchTable(b)
	q := flights.Q2(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunExact(context.Background(), t, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.NumRows()), "rows/op")
}

// paperBounderImpl is the ci.Bounder behind one of paperBounders.
func paperBounderImpl(b *testing.B, arm Bounder) ci.Bounder {
	b.Helper()
	impl, err := arm.impl()
	if err != nil {
		b.Fatal(err)
	}
	return impl
}

// BenchmarkBounderUpdate measures the streaming per-tuple cost of each
// bounder's state update — the CPU-overhead confounder §5.3 controls
// for by also reporting blocks fetched.
func BenchmarkBounderUpdate(b *testing.B) {
	for _, arm := range paperBounders {
		b.Run(arm.String(), func(b *testing.B) {
			s := paperBounderImpl(b, arm).NewState()
			for i := 0; i < b.N; i++ {
				s.Update(float64(i % 1000))
			}
		})
	}
}

// BenchmarkBoundCompute measures one Lower+Upper bound computation.
func BenchmarkBoundCompute(b *testing.B) {
	p := ci.Params{A: 0, B: 1000, N: 1 << 20, Delta: 1e-15}
	for _, arm := range paperBounders {
		b.Run(arm.String(), func(b *testing.B) {
			s := paperBounderImpl(b, arm).NewState()
			for i := 0; i < 10_000; i++ {
				s.Update(float64(i % 997))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Lower(p)
				_ = s.Upper(p)
			}
		})
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
