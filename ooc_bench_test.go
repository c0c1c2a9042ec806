// BenchmarkOutOfCoreScan measures the buffer pool's paging behaviour
// under budget pressure: the same exhaustive scan over a disk-backed
// table with a pool that holds every extent it reads, as read and
// decoded, and with pools of half and a tenth of its decoded rows.
// "extents-loaded/op" (the pool's misses) and "MB-read/op" are the
// physical cost the budget forces back onto the disk: every extent read
// is the pin of the scan that needs it, so both count every read and
// come out the same on every run. With a full-size pool the steady
// state is all hits and both drop to 0. Below it, two things matter.
// The dense scan checks every block of an extent, which from then on is
// charged for its decoded rows alone, so a budget holds more of its
// extents than of a sparse scan's, whose unchecked blocks keep their
// bytes as read charged. And the pool's scan-resistant LRU: each op
// scans from the same start block, so the extents an op finds resident
// are pinned a second time and kept, and the rest of the scan recycles
// its own once-used ones instead of evicting the prefix the next op
// starts on (under plain LRU, pool=half re-read nearly the whole table
// every op). The price is concurrent scans trailing each other through
// a full pool, which no longer find each other's extents. The "sparse"
// cases show the price of the dense cases' one
// read per extent: a predicate that leaves about one block in a hundred
// possible, so every read fetches — and caches — 63 blocks the scan
// does not want. At pool=tiny nothing a scan leaves behind survives, in
// a cache of blocks or of extents, and the case times the over-fetch
// alone; at pool=10pct a cache of blocks would hold every block this
// one query wants, a cache of extents cannot, and the case times that
// loss of capacity. The table file is read through the page cache, as
// every benchmark here reads it. It is a working benchmark for changes
// to the pool; the recorded trajectory is bench/ (BENCHMARK.json).
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
	// The dense query's decoded rows: 8 bytes a row of the aggregate
	// float column, 4 of the grouping code column. Budgets are fractions
	// of that, a number no charge rule of the pool moves, so "10pct"
	// must re-read about 90% of the scan every circulation. "full" has
	// room for the bytes as read too, so it caches the whole scan
	// whether or not a decoded extent is still charged for them.
	const decoded = rows * (8 + 4)
	cases := []struct {
		name   string
		budget int64
		q      QueryBuilder
		opts   []Option
	}{
		{"pool=full", 2 * decoded, dense, opts},
		{"pool=half", decoded / 2, dense, opts},
		{"pool=10pct", decoded / 10, dense, opts},
		{"sparse/pool=10pct", decoded / 10, sparse, opts},
		{"sparse/pool=tiny", 16 << 10, sparse, opts}, // less than one extent
	}

	for _, tc := range cases {
		q, opts := tc.q, tc.opts
		b.Run(tc.name, func(b *testing.B) {
			pool := NewBufferPool(tc.budget)
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
