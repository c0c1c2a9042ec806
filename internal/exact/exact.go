// Package exact evaluates queries exactly with a full scan over the
// scramble. It serves two roles in the reproduction: the ground truth
// every approximate result is checked against, and the "Exact" baseline
// ablated in the paper's Table 5 (approximation disabled, always Scan).
package exact

import (
	"context"
	"sort"
	"time"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// GroupValue is the exact answer for one aggregate view.
type GroupValue struct {
	Key string
	// Count is the view's row count — the exact twin of the online
	// path's Samples.
	Count int
	// Stats holds the exact value of every SELECT-list aggregate in
	// list order (COUNT is the view row count; MEDIAN/PERCENTILE are the
	// same order statistic the online path's exact finalization reports;
	// VAR and STDDEV are the population moments via Welford; COUNT
	// DISTINCT is the number of distinct dictionary codes observed).
	Stats []float64
}

// Result is the exact evaluation of a query.
type Result struct {
	Groups   []GroupValue // sorted by Key; only views with ≥1 row
	Duration time.Duration
}

// Group returns the exact value for a key, or nil. Groups is sorted by
// Key, so the lookup is a binary search.
func (r *Result) Group(key string) *GroupValue {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return &r.Groups[i]
	}
	return nil
}

// Run evaluates the query with a full sequential scan.
func Run(t *table.Table, q query.Query) (*Result, error) {
	return RunContext(context.Background(), t, q)
}

// ctxCheckRows is how many rows the exact scan covers between context
// checks.
const ctxCheckRows = 1 << 16

// RunContext is Run with cancellation: the scan checks the context
// every ctxCheckRows rows and returns ctx.Err() when it is done — an
// exact answer has no valid partial form, so nothing else is returned.
// It is the single-partition case of the partitioned scan, so it
// shares the per-partition accumulators (and their row-order float
// summation) with RunParallelContext.
func RunContext(ctx context.Context, t *table.Table, q query.Query) (*Result, error) {
	return RunParallelContext(ctx, t, q, 1)
}

func keyOf(groupCols []*table.CatColumn, id int) string {
	if len(groupCols) == 0 {
		return ""
	}
	parts := make([]string, len(groupCols))
	for i := len(groupCols) - 1; i >= 0; i-- {
		r := groupCols[i].NumValues()
		parts[i] = groupCols[i].Value(uint32(id % r))
		id /= r
	}
	key := parts[0]
	for _, p := range parts[1:] {
		key += "|" + p
	}
	return key
}
