// BenchmarkOutOfCoreScan measures the buffer pool's paging behaviour
// under budget pressure: the same exhaustive scan over a disk-backed
// table with a pool sized to hold the whole decoded table, half of it,
// and a tenth of it. "extents-loaded/op" (the pool's misses) and
// "MB-read/op" are the physical cost the budget forces back onto the
// disk: every extent read is the pin of the scan that needs it, so both
// count every read and come out the same on every run. With a full-size
// pool the steady state is all hits and both drop to 0. Below it, the
// pool's scan-resistant LRU matters: each op scans from the same start
// block, so the extents an op finds resident are pinned a second time
// and kept, and the rest of the scan recycles its own once-used ones
// instead of evicting the prefix the next op starts on (under plain
// LRU, pool=half re-read nearly the whole table every op). The price is
// concurrent unshared scans trailing each other through a full pool,
// which no longer find each other's extents; a shared scan reads each
// extent once for its cohort. "shared" is the path ffserved takes
// (WithSharedScan, one worker stepping block by block). The "sparse"
// cases show the price of the dense cases' one read per extent: a
// predicate that leaves about one block in a hundred possible, so every
// read fetches — and caches — 63 blocks the scan does not want. At
// pool=tiny nothing a scan leaves behind survives, in a cache of blocks
// or of extents, and the case times the over-fetch alone; at pool=10pct
// a cache of blocks would hold every block this one query wants, a
// cache of extents cannot, and the case times that loss of capacity.
// The table file is read through the page cache, as every benchmark
// here reads it. It is a working benchmark for changes to the pool;
// the recorded trajectory is bench/ (BENCHMARK.json).
//
//	go test . -run '^$' -bench BenchmarkOutOfCoreScan -benchtime 3x
package fastframe

import (
	"context"
	"testing"
)

func BenchmarkOutOfCoreScan(b *testing.B) {
	const rows = 500_000
	tab, err := GenerateFlights(rows, 7)
	if err != nil {
		b.Fatal(err)
	}
	path := writeTempTable(b, tab)
	ctx := context.Background()

	dense := Avg("DepDelay").GroupBy("Airline") // exhaustive: every block, every op
	// ABQ is a tail airport (0.036 % of rows): about one block in a
	// hundred can hold a row of it, the bitmap index prunes the rest.
	sparse := Avg("DepDelay").Where("Origin", "ABQ")
	opts := []Option{WithStrategy(ScanStrategy), WithRoundRows(50_000), WithSeed(7)}
	cases := []struct {
		name string
		frac float64
		q    QueryBuilder
		opts []Option
	}{
		{"pool=full", 1.0, dense, opts},
		{"pool=half", 0.5, dense, opts},
		{"pool=10pct", 0.1, dense, opts},
		{"shared/pool=10pct", 0.1, dense, append(opts[:len(opts):len(opts)], WithSharedScan())},
		{"sparse/pool=10pct", 0.1, sparse, opts},
		{"sparse/pool=tiny", 0.0015, sparse, opts}, // 16 KB: less than one extent
	}

	// The working set of the dense query — what the pool charges for the
	// extents of the aggregate float column and the grouping code column,
	// as read plus decoded — measured in a pool nothing is evicted from.
	// Budgets are fractions of that, so "full" caches the whole scan and
	// "10pct" must re-read 90% of it every circulation.
	var workingSet int64
	{
		pool := NewBufferPool(1 << 30)
		ooc, err := OpenTable(path, pool)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ooc.Query(ctx, dense, opts...); err != nil {
			b.Fatal(err)
		}
		workingSet = ooc.PoolStats().UsedBytes
		ooc.Close()
		pool.Close()
	}

	for _, tc := range cases {
		q, opts := tc.q, tc.opts
		b.Run(tc.name, func(b *testing.B) {
			pool := NewBufferPool(int64(float64(workingSet) * tc.frac))
			defer pool.Close()
			ooc, err := OpenTable(path, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer ooc.Close()
			// One warm-up pass so the full-budget case measures its
			// steady state (all hits) rather than the cold fill.
			if _, err := ooc.Query(ctx, q, opts...); err != nil {
				b.Fatal(err)
			}
			s0 := ooc.PoolStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ooc.Query(ctx, q, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s1 := ooc.PoolStats()
			n := float64(b.N)
			loads := float64(s1.Misses - s0.Misses)
			hits := float64(s1.Hits - s0.Hits)
			b.ReportMetric(loads/n, "extents-loaded/op")
			b.ReportMetric(float64(s1.BytesRead-s0.BytesRead)/n/1e6, "MB-read/op")
			b.ReportMetric(float64(s1.Evictions-s0.Evictions)/n, "evictions/op")
			if hits+loads > 0 {
				b.ReportMetric(100*hits/(hits+loads), "hit-%")
			}
		})
	}
}
