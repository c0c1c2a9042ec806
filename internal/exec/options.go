// Package exec is FastFrame's approximate query executor. It scans a
// scramble block-by-block from a random starting position, maintains a
// streaming error-bounder state per aggregate view (group), recomputes
// sequentially-valid confidence intervals at every look of core.Looks (a
// ramp up to RoundRows rows, then every RoundRows) with the optional-
// stopping δ split of Algorithm 5, bounds unknown view sizes
// with the selectivity CI of Lemma 5 / Theorem 3, and terminates as soon
// as the query's stopping condition (§4.2) holds — skipping blocks that
// contain no tuples of still-active groups via the bitmap indexes
// (active scanning, §4.3).
package exec

import (
	"fastframe/internal/ci"
	"fastframe/internal/core"
)

// Strategy selects the sampling strategy of §5.2.
type Strategy int

const (
	// Scan processes blocks sequentially. Bitmaps are used only to prune
	// blocks that cannot satisfy a fixed categorical predicate, never to
	// prioritize groups.
	Scan Strategy = iota
	// Active also skips blocks containing no tuples of any still-active
	// group (§4.3): one synchronous pass over the bitmap indexes per span
	// of at most 64 blocks (engine.activeMask).
	Active
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Scan:
		return "scan"
	case Active:
		return "active"
	default:
		return "strategy?"
	}
}

// DefaultDelta is the paper's evaluation error probability, δ = 1e−15
// (§5.2): failures are effectively impossible.
const DefaultDelta = 1e-15

// alpha is the paper's α = 0.99 for Theorem 3: 99% of each look's
// error budget goes to the interval, 1% to the view-size upper bound.
// It is typed so that 1−α is float64(1) − float64(0.99), rounded as a
// run-time subtraction, not the exact 0.01.
const alpha float64 = 0.99

// Options configures a query execution.
type Options struct {
	// Bounder computes the confidence bounds; required. Wrap with
	// core.RangeTrim for the paper's headline configuration.
	Bounder ci.Bounder
	// Strategy is the sampling strategy (default Scan).
	Strategy Strategy
	// Delta is the total error probability for the query, divided across
	// aggregate views. Defaults to DefaultDelta.
	Delta float64
	// RoundRows is R, the round size of the look schedule (core.Looks):
	// intervals are recomputed after R/16, R/8, R/4 and R/2 covered rows,
	// then every R (the paper's B = 40000, core.DefaultBatchSize).
	RoundRows int
	// StartBlock is the scan's starting block. The paper starts each
	// approximate query at a random scramble position: the caller draws
	// it (fastframe derives it from the query's seed).
	StartBlock int
	// MaxRows, if positive, aborts the scan after covering this many
	// rows even if the stopping condition has not been reached.
	MaxRows int
	// DegradedReads lets a scan continue past permanently quarantined
	// blocks instead of failing the query: the skipped rows stay
	// unobserved (they are never credited to coverage), so the
	// unknown-view-size machinery charges them at their catalog-bound
	// worst case and every reported interval remains a conservatively
	// valid (1−δ) CI. Result.Degraded/QuarantinedBlocks report the loss.
	// Off by default: an unreadable block fails the query at the round
	// boundary with the classified *blockstore.BlockError.
	DegradedReads bool
	// OnRound, if set, is called after every look with a
	// snapshot of the current intervals — the paper's "explicit use of
	// downstream CIs" (§2.1): online-aggregation interfaces display the
	// tightening intervals and let the user stop when satisfied. Return
	// false to abort the scan; the snapshot's intervals remain valid
	// (1−δ) CIs at whatever point the user stops, by the optional-
	// stopping construction.
	OnRound func(RoundSnapshot) bool
}

// RoundSnapshot is the state delivered to Options.OnRound after each
// look of the schedule closes.
type RoundSnapshot struct {
	// Round is the 1-based number of the look, the ramp's included.
	Round int
	// RowsCovered and BlocksFetched are the cost so far.
	RowsCovered   int
	BlocksFetched int
	// NumActive is the number of groups still driving the scan.
	NumActive int
	// Degraded and QuarantinedBlocks report blocks skipped past storage
	// faults under Options.DegradedReads (see Result).
	Degraded          bool
	QuarantinedBlocks int
	// Groups holds the current per-view intervals (views with observed
	// support only), sorted by key. The slice is freshly allocated per
	// round and safe to retain.
	Groups []GroupResult
}

func (o Options) withDefaults() Options {
	if o.Delta <= 0 {
		o.Delta = DefaultDelta
	}
	if o.RoundRows <= 0 {
		o.RoundRows = core.DefaultBatchSize
	}
	return o
}
