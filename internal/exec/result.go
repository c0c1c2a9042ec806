package exec

import (
	"sort"
	"time"

	"fastframe/internal/ci"
	"fastframe/internal/query"
)

// AggAnswer is the interval for one aggregate of the SELECT list.
type AggAnswer struct {
	// Kind identifies which aggregate this answer belongs to, in SELECT
	// list order.
	Kind query.AggKind
	// Interval is the (1−δ_view/N) confidence interval for the
	// aggregate; the N-way Bonferroni split across the list keeps the
	// joint view-level guarantee at 1−δ_view.
	Interval ci.Interval
}

// GroupResult is the approximate answer for one aggregate view.
type GroupResult struct {
	// Key is the rendered GROUP BY key ("" for ungrouped queries).
	Key string
	// Aggs holds one answer per SELECT-list aggregate, in list order.
	Aggs []AggAnswer
	// Samples is the number of view rows that contributed.
	Samples int
	// Exact is set when the scan covered the entire view, making the
	// estimate exact (the interval collapses to a point).
	Exact bool
}

// Result is the outcome of one approximate query execution.
type Result struct {
	// Groups holds one entry per aggregate view with observed support,
	// sorted by Key.
	Groups []GroupResult
	// BlocksFetched counts blocks whose rows were actually read — the
	// paper's hardware-independent cost metric.
	BlocksFetched int
	// RowsCovered counts rows whose view membership was resolved
	// (fetched or skipped-with-certainty).
	RowsCovered int
	// Rounds is the number of looks closed, the ramp's included.
	Rounds int
	// StartBlock is the block the scan began at: Options.StartBlock
	// modulo the table's block count. Re-running the same query with
	// Options.StartBlock set to this value reproduces the execution byte
	// for byte.
	StartBlock int
	// Exhausted is set when the scan walked the whole scramble.
	Exhausted bool
	// Stopped is set when the stopping condition was met before
	// exhaustion (early termination).
	Stopped bool
	// Aborted is set when an OnRound callback ended the scan early; the
	// reported intervals remain valid (1-δ) CIs.
	Aborted bool
	// Degraded is set when Options.DegradedReads let the scan skip
	// quarantined blocks: the intervals are still valid (1−δ) CIs — the
	// skipped rows are charged at catalog-bound worst case, exactly like
	// unscanned rows — but they can no longer tighten past that loss and
	// no view over the damaged region can finalize exact.
	Degraded bool
	// QuarantinedBlocks counts the blocks the scan skipped as damaged.
	QuarantinedBlocks int
	// Duration is the wall-clock execution time.
	Duration time.Duration
}

// Group returns the result for a key, or nil. Groups is sorted by Key,
// so the lookup is a binary search.
func (r *Result) Group(key string) *GroupResult {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return &r.Groups[i]
	}
	return nil
}
