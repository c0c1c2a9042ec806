package exec

import (
	"testing"

	"fastframe/internal/query"
)

// runRecovered calls run and returns what it panicked with (nil if it
// returned).
func runRecovered(run func()) (panicked any) {
	defer func() { panicked = recover() }()
	run()
	return nil
}

// runBrittle calls run with every bound a look computes panicking once
// its track holds n values — a failure that fires on whichever goroutine
// is closing the look — and returns what run panicked with.
func runBrittle(n int, run func()) any {
	boundHook = func(samples int) {
		if samples >= n {
			panic("synthetic bounder failure")
		}
	}
	defer func() { boundHook = nil }()
	return runRecovered(run)
}

// TestWorkerPanicReachesCaller: a bound that panics while a look
// closes the bounds of 4096 potential groups panics on the goroutine
// driving the engine, which is the goroutine that called Run, so the
// panic reaches the caller instead of killing the process, and the table
// keeps answering.
func TestWorkerPanicReachesCaller(t *testing.T) {
	tab := buildWideGroupTable(t, 20_000, 64)
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"c1", "c2"}, Stop: query.Exhaust()}
	if p := runBrittle(40, func() { _, _ = Run(tab, q, fixedOpts()) }); p != "synthetic bounder failure" {
		t.Errorf("recovered %v, want the bounder's panic", p)
	}
	if _, err := Run(tab, q, fixedOpts()); err != nil {
		t.Errorf("query after the panic: %v", err)
	}
}
