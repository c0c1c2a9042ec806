package fastframe

// Option configures one query execution. Options apply in order, so a
// later option overrides an earlier one; the zero configuration is the
// paper's default setup (Bernstein+RT, active scanning, δ = 1e−15, bound
// recomputation every 40000 rows).
type Option func(*runSettings)

// runSettings is the resolved execution configuration. The zero value
// selects the defaults.
type runSettings struct {
	bounder        Bounder
	strategy       Strategy
	delta          float64
	roundRows      int
	seed           uint64
	maxRows        int
	sharedScan     bool
	degradedReads  bool
	startBlock     int
	haveStartBlock bool
	onProgress     func(Progress) bool
}

func (s *runSettings) apply(opts []Option) {
	for _, o := range opts {
		o(s)
	}
}

// WithBounder selects the confidence-interval technique (default
// BernsteinRT, the paper's headline configuration).
func WithBounder(b Bounder) Option {
	return func(s *runSettings) { s.bounder = b }
}

// WithStrategy selects the sampling strategy (default ActiveStrategy).
func WithStrategy(st Strategy) Option {
	return func(s *runSettings) { s.strategy = st }
}

// WithDelta sets the query's total error probability, divided across
// its aggregate views (default 1e−15, also selected by 0). Queries
// issued through an Engine draw their δ from the session budget
// instead; WithDelta overrides it for one query. A δ that is NaN,
// negative or at least 1 fails the query.
func WithDelta(delta float64) Option {
	return func(s *runSettings) { s.delta = delta }
}

// WithRoundRows sets R, the round size (the paper's B; default 40000).
// Intervals are recomputed — a look — after R/16, R/8, R/4 and R/2
// covered rows (the ramp, on 1/8 of the query's δ), then every R rows.
// Smaller rounds stop closer to the earliest possible point and react to
// cancellation faster, at more bound-computation CPU.
func WithRoundRows(n int) Option {
	return func(s *runSettings) { s.roundRows = n }
}

// WithSeed randomizes the scan's starting position within the scramble
// (queries start at a seed-derived block).
func WithSeed(seed uint64) Option {
	return func(s *runSettings) { s.seed = seed }
}

// WithMaxRows aborts the scan after covering n rows even if the
// stopping condition has not been reached.
func WithMaxRows(n int) Option {
	return func(s *runSettings) { s.maxRows = n }
}

// WithStartBlock pins the scan's starting block instead of deriving it
// from the seed — the reproducibility hook: re-running a query with
// WithStartBlock(res.StartBlock) replays the recorded execution byte
// for byte, whether the original ran solo or on a shared scan.
func WithStartBlock(b int) Option {
	return func(s *runSettings) { s.startBlock, s.haveStartBlock = b, true }
}

// WithSharedScan routes the query through the table's cooperative scan
// driver: concurrent queries against the same table coalesce onto one
// circulating block scan that fetches each wanted block once and steps
// every attached query through it, instead of N independent scans
// reading largely the same data. New queries are admitted at round
// boundaries; queries that converge, abort, or hit their row cap
// detach without disturbing the rest. The Result, Progress stream and
// δ accounting are byte-identical to solo execution started at the
// same block (Result.StartBlock records it — the seed-derived position
// when the driver was idle at admission, the scan frontier otherwise).
// One coupling to note: progress consumers pace the scan (as in solo
// streaming), so under a shared scan a stalled consumer paces the
// whole cohort until its context deadline or Close.
func WithSharedScan() Option {
	return func(s *runSettings) { s.sharedScan = true }
}

// WithParallelism does nothing. Every query, solo or under
// WithSharedScan, scans and closes its looks on one goroutine; the option
// is kept only so that existing callers still compile.
func WithParallelism(int) Option {
	return func(*runSettings) {}
}

// WithDegradedReads lets a query on an out-of-core table keep scanning
// past permanently quarantined blocks (storage faults that survived the
// buffer pool's retries) instead of failing: the damaged blocks' rows
// stay unobserved and are charged at their catalog-bound worst case by
// the same unknown-view-size machinery that covers unscanned rows, so
// every reported interval remains a conservatively valid (1−δ) CI —
// wider than a clean run's, never wrong. Result.Degraded and
// Result.QuarantinedBlocks (also on Progress) report the loss. Without
// this option an unreadable block fails the query with a
// *blockstore.BlockError naming the table, column and block (see
// StorageFault).
func WithDegradedReads() Option {
	return func(s *runSettings) { s.degradedReads = true }
}

// WithProgress registers an online-aggregation callback: fn receives a
// snapshot after every interval recomputation; return false to stop
// early (Result.Aborted is then set and the reported intervals remain
// valid).
func WithProgress(fn func(Progress) bool) Option {
	return func(s *runSettings) { s.onProgress = fn }
}
