// Benchmarks regenerating the paper's evaluation (§5), one benchmark
// family per table/figure. Each op is one end-to-end query execution on
// a shared 500k-row synthetic Flights scramble; "blocks/op" is the
// paper's hardware-independent cost metric. cmd/ffbench runs the same
// experiment code at full scale and prints the paper's row/series
// layout; EXPERIMENTS.md records a reference run.
//
//	go test -bench=. -benchmem
//	go test -bench=Table5 -benchtime=5x
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
	"fastframe/internal/experiments"
	"fastframe/internal/flights"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// benchRows is the smallest scale at which the paper's regimes
// differentiate (views large enough that distribution-sensitive bounds
// terminate early while range-only bounds cannot); run cmd/ffbench
// -rows 4000000 for the full-scale numbers recorded in EXPERIMENTS.md.
const benchRows = 2_000_000

var (
	benchOnce  sync.Once
	benchTable *table.Table
)

func benchCfg() experiments.Config {
	return experiments.Config{
		Rows:      benchRows,
		Seed:      42,
		Delta:     exec.DefaultDelta,
		RoundRows: 40_000,
		Strategy:  exec.Active,
	}
}

func getBenchTable(b *testing.B) *table.Table {
	b.Helper()
	benchOnce.Do(func() {
		t, err := experiments.BuildTable(benchCfg())
		if err != nil {
			panic(err)
		}
		benchTable = t
	})
	return benchTable
}

func runBench(b *testing.B, q query.Query, bounder ci.Bounder, strategy exec.Strategy) {
	b.Helper()
	t := getBenchTable(b)
	cfg := benchCfg()
	var blocks, rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(t, q, exec.Options{
			Bounder:    bounder,
			Strategy:   strategy,
			Delta:      cfg.Delta,
			RoundRows:  cfg.RoundRows,
			StartBlock: i * 7919, // vary the start like the paper's random offsets
		})
		if err != nil {
			b.Fatal(err)
		}
		blocks, rows = res.BlocksFetched, res.RowsCovered
	}
	b.ReportMetric(float64(blocks), "blocks/op")
	b.ReportMetric(float64(rows), "rows/op")
}

func runExactBench(b *testing.B, q query.Query) {
	b.Helper()
	t := getBenchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunExact(context.Background(), t, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Layout().NumBlocks()), "blocks/op")
}

// BenchmarkTable5 is the error-bounder ablation of Table 5: every
// Flights query under Exact and the four bounder arms.
func BenchmarkTable5(b *testing.B) {
	for _, q := range flights.DefaultQueries() {
		q := q
		b.Run(q.Name+"/Exact", func(b *testing.B) { runExactBench(b, q) })
		for _, arm := range experiments.Bounders() {
			arm := arm
			b.Run(q.Name+"/"+arm.Name, func(b *testing.B) {
				runBench(b, q, arm.B, exec.Active)
			})
		}
	}
}

// BenchmarkTable6 is the sampling-strategy ablation of Table 6:
// GROUP BY queries with Bernstein+RT under Scan/Active.
func BenchmarkTable6(b *testing.B) {
	bounder := core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	strategies := []struct {
		name string
		s    exec.Strategy
	}{
		{"Scan", exec.Scan},
		{"Active", exec.Active},
	}
	for _, q := range experiments.Table6Queries() {
		q := q
		for _, st := range strategies {
			st := st
			b.Run(q.Name+"/"+st.name, func(b *testing.B) {
				runBench(b, q, bounder, st.s)
			})
		}
	}
}

// BenchmarkFig6 is the selectivity sweep of Figure 6: F-q1[ε=.5] on
// airports spanning the selectivity range, per bounder.
func BenchmarkFig6(b *testing.B) {
	airports := experiments.Fig6Airports()
	picks := []string{airports[0], airports[len(airports)/2], airports[len(airports)-1]}
	for _, airport := range picks {
		q := flights.Q1(airport, 0.5)
		for _, arm := range experiments.Bounders() {
			arm := arm
			b.Run(airport+"/"+arm.Name, func(b *testing.B) {
				runBench(b, q, arm.B, exec.Active)
			})
		}
	}
}

// BenchmarkFig7a is the requested-relative-error sweep of Figure 7(a)
// for the headline bounder.
func BenchmarkFig7a(b *testing.B) {
	bounder := core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	for _, eps := range []float64{0.1, 0.5, 1.0, 2.0} {
		q := flights.Q1("ORD", eps)
		b.Run(q.Name+"/eps="+ftoa(eps), func(b *testing.B) {
			runBench(b, q, bounder, exec.Active)
		})
	}
}

// BenchmarkFig7b is the HAVING-threshold sweep of Figure 7(b): an easy
// threshold (far below every aggregate), a mid-gap threshold, and a
// near-aggregate threshold, for Hoeffding vs Bernstein+RT.
func BenchmarkFig7b(b *testing.B) {
	arms := []experiments.BounderSpec{
		experiments.Bounders()[0], // Hoeffding
		experiments.Bounders()[3], // Bernstein+RT
	}
	for _, thresh := range []float64{0, 9.3, 10.1} {
		q := flights.Q2(thresh)
		for _, arm := range arms {
			arm := arm
			b.Run("thresh="+ftoa(thresh)+"/"+arm.Name, func(b *testing.B) {
				runBench(b, q, arm.B, exec.Active)
			})
		}
	}
}

// BenchmarkFig8 is the minimum-departure-time sweep of Figure 8 for
// Hoeffding+RT vs Bernstein+RT.
func BenchmarkFig8(b *testing.B) {
	arms := []experiments.BounderSpec{
		experiments.Bounders()[1], // Hoeffding+RT
		experiments.Bounders()[3], // Bernstein+RT
	}
	for _, mdt := range []float64{1000, 1730, 2250} {
		q := flights.Q3(mdt)
		for _, arm := range arms {
			arm := arm
			b.Run("mindep="+ftoa(mdt)+"/"+arm.Name, func(b *testing.B) {
				runBench(b, q, arm.B, exec.Active)
			})
		}
	}
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

// BenchmarkBounderUpdate measures the streaming per-tuple cost of each
// bounder's state update — the CPU-overhead confounder §5.3 controls
// for by also reporting blocks fetched.
func BenchmarkBounderUpdate(b *testing.B) {
	bounders := []experiments.BounderSpec{
		{Name: "Hoeffding", B: ci.HoeffdingSerfling{}},
		{Name: "Bernstein", B: ci.EmpiricalBernsteinSerfling{}},
		{Name: "Bernstein+RT", B: core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}},
		{Name: "Anderson", B: ci.AndersonDKW{}},
	}
	for _, arm := range bounders {
		arm := arm
		b.Run(arm.Name, func(b *testing.B) {
			s := arm.B.NewState()
			for i := 0; i < b.N; i++ {
				s.Update(float64(i % 1000))
			}
		})
	}
}

// BenchmarkBoundCompute measures one Lower+Upper bound computation.
func BenchmarkBoundCompute(b *testing.B) {
	p := ci.Params{A: 0, B: 1000, N: 1 << 20, Delta: 1e-15}
	for _, arm := range experiments.Bounders() {
		arm := arm
		b.Run(arm.Name, func(b *testing.B) {
			s := arm.B.NewState()
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

func ftoa(v float64) string {
	switch {
	case v == float64(int64(v)):
		return itoa(int64(v))
	default:
		return itoa(int64(v)) + "." + itoa(int64(v*10)%10)
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
