// BenchmarkSharedScanConcurrency is the headline cooperative-scan
// measurement: 8 concurrent identical queries against one table, run
// as 8 independent scans ("solo") versus one shared circulating scan
// ("shared"). Wall-clock time is the benchmark metric; "blocks/op"
// reports the physical blocks fetched per op (all 8 queries together),
// which for the shared driver collapses from ~8 scans to ~1.
package fastframe

import (
	"context"
	"sync"
	"testing"
)

const sharedBenchQueries = 8

var (
	sharedBenchOnce sync.Once
	sharedBenchTab  *Table
)

func getSharedBenchTable(b *testing.B) *Table {
	b.Helper()
	sharedBenchOnce.Do(func() {
		tab, err := GenerateFlights(500_000, 42)
		if err != nil {
			panic(err)
		}
		sharedBenchTab = tab
	})
	return sharedBenchTab
}

func runSharedBench(b *testing.B, shared bool) {
	tab := getSharedBenchTable(b)
	ctx := context.Background()
	q := Avg("DepDelay").GroupBy("Airline")
	// Fixed work per query — a row cap instead of a convergence race —
	// so solo and shared scan exactly the same span per query.
	base := []Option{
		WithDelta(1e-9),
		WithRoundRows(5000),
		WithMaxRows(250_000),
	}
	if shared {
		base = append(base, WithSharedScan())
	}

	var totalBlocks int64
	before := tab.SharedScanStats() // counters persist across reruns; diff them
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := append(append([]Option{}, base...), WithSeed(uint64(i)))
		var wg sync.WaitGroup
		results := make([]*Result, sharedBenchQueries)
		for k := 0; k < sharedBenchQueries; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				res, err := tab.Query(ctx, q, opts...)
				if err != nil {
					b.Error(err)
					return
				}
				results[k] = res
			}(k)
		}
		wg.Wait()
		if !shared {
			for _, res := range results {
				if res != nil {
					totalBlocks += int64(res.BlocksFetched)
				}
			}
		}
	}
	b.StopTimer()
	if shared {
		totalBlocks = tab.SharedScanStats().BlocksFetched - before.BlocksFetched
	}
	b.ReportMetric(float64(totalBlocks)/float64(b.N), "blocks/op")
}

func BenchmarkSharedScanConcurrency(b *testing.B) {
	b.Run("solo", func(b *testing.B) { runSharedBench(b, false) })
	b.Run("shared", func(b *testing.B) { runSharedBench(b, true) })
}
