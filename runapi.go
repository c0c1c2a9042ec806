package fastframe

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/exec"
	"fastframe/internal/query"
)

// Bounder selects the confidence-interval technique (§5.2 of the
// paper). BernsteinRT is the paper's headline configuration and the
// default.
type Bounder int

const (
	// BernsteinRT is the empirical Bernstein–Serfling bounder wrapped
	// with RangeTrim: neither PMA nor PHOS. The default.
	BernsteinRT Bounder = iota
	// Bernstein is the empirical Bernstein–Serfling bounder alone
	// (no PMA, but PHOS).
	Bernstein
	// HoeffdingRT is the Hoeffding–Serfling bounder with RangeTrim
	// (PMA, no PHOS).
	HoeffdingRT
	// Hoeffding is the Hoeffding–Serfling bounder alone (PMA and PHOS);
	// the traditional conservative AQP baseline.
	Hoeffding
	// Anderson is the Anderson/DKW bounder (PMA, no PHOS; O(m) memory).
	Anderson
)

// bounders holds each Bounder's name, as in the paper's tables, and
// its implementation: the five configurations there are.
var bounders = [...]struct {
	name string
	impl ci.Bounder
}{
	BernsteinRT: {"Bernstein+RT", core.RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}},
	Bernstein:   {"Bernstein", ci.EmpiricalBernsteinSerfling{}},
	HoeffdingRT: {"Hoeffding+RT", core.RangeTrim{Inner: ci.HoeffdingSerfling{}}},
	Hoeffding:   {"Hoeffding", ci.HoeffdingSerfling{}},
	Anderson:    {"Anderson", ci.AndersonDKW{}},
}

// String names the bounder as in the paper's tables.
func (b Bounder) String() string {
	if uint(b) >= uint(len(bounders)) {
		return fmt.Sprintf("Bounder(%d)", int(b))
	}
	return bounders[b].name
}

func (b Bounder) impl() (ci.Bounder, error) {
	if uint(b) >= uint(len(bounders)) {
		return nil, fmt.Errorf("fastframe: unknown bounder %d", int(b))
	}
	return bounders[b].impl, nil
}

// Strategy selects the sampling strategy (§5.2).
type Strategy int

const (
	// ActiveStrategy skips blocks that the bitmap indexes show to hold no
	// tuple of a still-active group (active scanning, §4.3). The default.
	ActiveStrategy Strategy = iota
	// ScanStrategy reads blocks sequentially, using bitmaps only to
	// prune blocks that cannot match a categorical predicate.
	ScanStrategy
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case ActiveStrategy:
		return "Active"
	case ScanStrategy:
		return "Scan"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

func (s Strategy) impl() exec.Strategy {
	if s == ScanStrategy {
		return exec.Scan
	}
	return exec.Active
}

// Progress is a mid-query snapshot delivered to WithProgress callbacks
// and Rows cursors.
type Progress struct {
	// Aggs lists every SELECT-list aggregate in order; group Answers
	// align with it.
	Aggs []Agg `json:"aggs"`
	// Round counts the looks so far, the ramp's (WithRoundRows) included.
	Round int `json:"round"`
	// RowsCovered and BlocksFetched are the cost so far.
	RowsCovered   int `json:"rows_covered"`
	BlocksFetched int `json:"blocks_fetched"`
	// ActiveGroups is the number of groups still driving the scan.
	ActiveGroups int `json:"active_groups"`
	// Degraded and QuarantinedBlocks report blocks skipped past storage
	// faults under WithDegradedReads (see Result).
	Degraded          bool `json:"degraded,omitempty"`
	QuarantinedBlocks int  `json:"quarantined_blocks,omitempty"`
	// Groups holds the current per-view intervals, sorted by key.
	Groups []GroupResult `json:"groups"`
}

// Interval is a confidence interval around an estimate: the true
// aggregate lies in [Lo, Hi] with probability at least 1 − Delta.
type Interval struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Estimate float64 `json:"estimate"`
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v ∈ [Lo, Hi].
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ∈ [%.6g, %.6g]", iv.Estimate, iv.Lo, iv.Hi)
}

func fromCI(iv ci.Interval) Interval {
	return Interval{Lo: iv.Lo, Hi: iv.Hi, Estimate: iv.Estimate}
}

// Agg identifies an aggregate function; Result.Aggs, Progress.Aggs and
// ExactResult.Aggs list the ones a query computed, in SELECT-list order.
type Agg query.AggKind

const (
	// AggAvg is AVG(...).
	AggAvg = Agg(query.Avg)
	// AggSum is SUM(...).
	AggSum = Agg(query.Sum)
	// AggCount is COUNT(*).
	AggCount = Agg(query.Count)
	// AggMedian is MEDIAN(...), the 0.5-quantile.
	AggMedian = Agg(query.Median)
	// AggPercentile is PERCENTILE(..., p) for an arbitrary p ∈ (0,1).
	AggPercentile = Agg(query.Percentile)
	// AggVar is VAR(...), the population variance.
	AggVar = Agg(query.Var)
	// AggStddev is STDDEV(...), the population standard deviation.
	AggStddev = Agg(query.Stddev)
	// AggCountDistinct is COUNT(DISTINCT col) over a categorical column.
	AggCountDistinct = Agg(query.CountDistinct)
)

// String returns the SQL spelling: AVG, SUM, COUNT, MEDIAN,
// PERCENTILE, VAR, STDDEV, or COUNT DISTINCT.
func (a Agg) String() string { return query.AggKind(a).String() }

// MarshalText encodes the SQL spelling, so a JSON Result, Progress or
// ExactResult names its aggregates as a statement writes them.
func (a Agg) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText decodes the SQL spelling and refuses any other name; it
// is the one inverse of String.
func (a *Agg) UnmarshalText(text []byte) error {
	for k := Agg(0); k < Agg(query.NumAggKinds); k++ {
		if k.String() == string(text) {
			*a = k
			return nil
		}
	}
	return fmt.Errorf("fastframe: unknown aggregate %q", text)
}

// aggsOf maps the query's SELECT list onto public Agg identifiers.
func aggsOf(q query.Query) []Agg {
	out := make([]Agg, len(q.Aggs))
	for i, a := range q.Aggs {
		out[i] = Agg(a.Kind)
	}
	return out
}

// GroupResult is the approximate answer for one group (aggregate view).
type GroupResult struct {
	// Key is the GROUP BY key ("" for ungrouped queries; composite keys
	// join column values with "|").
	Key string `json:"key"`
	// Answers holds one interval per SELECT-list aggregate, aligned
	// with the Result's (or Progress's) Aggs list. Each interval holds
	// with probability 1 − δ_view/len(Aggs) (Bonferroni split), so the
	// joint statement over the whole list holds with 1 − δ_view.
	Answers []Interval `json:"answers"`
	// Samples is the number of view rows that contributed.
	Samples int `json:"samples"`
	// Exact reports that the whole view was observed (point answer).
	Exact bool `json:"exact"`
}

// Result is the outcome of an approximate query.
type Result struct {
	// Aggs lists every SELECT-list aggregate in order; each group's
	// Answers slice aligns with it.
	Aggs []Agg `json:"aggs"`
	// AggIndex is the position in Aggs of the aggregate a HAVING or
	// ORDER BY … LIMIT stopping rule watched (0 under the width rules,
	// which watch every aggregate): the interval DecidedAbove,
	// DecidedBelow and Undecided read.
	AggIndex int `json:"agg_index"`
	// Groups holds one entry per observed group, sorted by Key.
	Groups []GroupResult `json:"groups"`
	// BlocksFetched counts storage blocks actually read, the paper's
	// hardware-independent cost metric.
	BlocksFetched int `json:"blocks_fetched"`
	// RowsCovered counts rows whose view membership was resolved.
	RowsCovered int `json:"rows_covered"`
	// Rounds is the number of looks taken, the ramp's (WithRoundRows) included.
	Rounds int `json:"rounds"`
	// StartBlock is the storage block the scan began at: the
	// seed-derived random position, or the block WithStartBlock pinned.
	// Re-running the query with WithStartBlock(StartBlock) reproduces
	// the execution byte for byte.
	StartBlock int `json:"start_block"`
	// Stopped reports early termination via the stopping condition;
	// Exhausted reports a complete scan; Aborted reports that an
	// OnProgress callback ended the scan (intervals remain valid).
	Stopped   bool `json:"stopped"`
	Exhausted bool `json:"exhausted"`
	Aborted   bool `json:"aborted"`
	// Degraded reports that WithDegradedReads let the scan skip
	// quarantined (permanently unreadable) blocks: the intervals are
	// still valid (1−δ) CIs — the damaged rows are charged at their
	// catalog-bound worst case, exactly like unscanned rows — but they
	// cannot tighten past that loss. QuarantinedBlocks counts the blocks
	// skipped.
	Degraded          bool `json:"degraded,omitempty"`
	QuarantinedBlocks int  `json:"quarantined_blocks,omitempty"`
	// Duration is the wall-clock execution time (on the wire: integer
	// nanoseconds).
	Duration time.Duration `json:"duration_ns"`
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

// DecidedAbove returns the keys of groups whose watched interval
// (Answers[AggIndex]) lies entirely above v — the w.h.p.-correct result
// set of "HAVING agg(...) > v" once a threshold-stopped query
// terminates.
func (r *Result) DecidedAbove(v float64) []string {
	return r.keysWhere(func(iv Interval) bool { return iv.Lo > v })
}

// DecidedBelow returns the keys of groups whose watched interval lies
// entirely below v ("HAVING agg(...) < v").
func (r *Result) DecidedBelow(v float64) []string {
	return r.keysWhere(func(iv Interval) bool { return iv.Hi < v })
}

// Undecided returns the keys of groups whose watched interval still
// contains v (possible only if the query was aborted or hit MaxRows
// before the threshold condition resolved).
func (r *Result) Undecided(v float64) []string {
	return r.keysWhere(func(iv Interval) bool { return iv.Contains(v) })
}

// keysWhere returns the keys of the groups whose watched interval
// satisfies keep.
func (r *Result) keysWhere(keep func(Interval) bool) []string {
	var keys []string
	for _, g := range r.Groups {
		if keep(g.Answers[r.AggIndex]) {
			keys = append(keys, g.Key)
		}
	}
	return keys
}

// SessionDelta splits a total failure budget across q independent
// queries by union bound: running q queries each with the returned δ
// keeps the probability that ANY of them errs below total. The paper
// (§4.1) notes this division is needed when one scramble serves many
// queries; at the default δ=1e−15 per query, any practical session
// stays effectively deterministic without adjustment.
func SessionDelta(total float64, q int) float64 {
	if q <= 1 {
		return total
	}
	return total / float64(q)
}

// Query executes an approximate query against the table. The context
// is checked at every interval-recomputation round: when it is
// cancelled or its deadline expires, the scan stops and the partial
// Result is returned with Aborted set — its intervals remain valid
// (1−δ) CIs at the point the scan stopped. A context that is already
// done before any work starts returns ctx.Err() instead.
func (t *Table) Query(ctx context.Context, q QueryBuilder, opts ...Option) (*Result, error) {
	var s runSettings
	s.apply(opts)
	return t.runQuery(ctx, q.build(), s)
}

// checkDelta refuses a δ that is not a probability below 1; 0 selects
// the default.
func checkDelta(delta float64) error {
	if !(delta >= 0 && delta < 1) { // NaN fails both
		return fmt.Errorf("fastframe: δ = %v is not a probability below 1 (0 selects the default)", delta)
	}
	return nil
}

// runQuery is the shared execution path beneath Table.Query and
// Engine.Query.
func (t *Table) runQuery(ctx context.Context, q query.Query, s runSettings) (*Result, error) {
	b, err := s.bounder.impl()
	if err != nil {
		return nil, err
	}
	if err := checkDelta(s.delta); err != nil {
		return nil, err
	}
	execOpts := exec.Options{
		Bounder:       b,
		Strategy:      s.strategy.impl(),
		Delta:         s.delta,
		RoundRows:     s.roundRows,
		StartBlock:    s.startBlock,
		MaxRows:       s.maxRows,
		DegradedReads: s.degradedReads,
	}
	if nb := t.NumBlocks(); !s.haveStartBlock && nb > 0 {
		execOpts.StartBlock = rand.New(rand.NewPCG(s.seed, 0x9a7)).IntN(nb)
	}
	if s.onProgress != nil {
		cb := s.onProgress
		execOpts.OnRound = func(s exec.RoundSnapshot) bool {
			p := Progress{
				Aggs:              aggsOf(q),
				Round:             s.Round,
				RowsCovered:       s.RowsCovered,
				BlocksFetched:     s.BlocksFetched,
				ActiveGroups:      s.NumActive,
				Degraded:          s.Degraded,
				QuarantinedBlocks: s.QuarantinedBlocks,
				Groups:            groupsFromExec(s.Groups),
			}
			return cb(p)
		}
	}
	res, err := exec.RunContext(ctx, t.t, q, execOpts)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Aggs:              aggsOf(q),
		AggIndex:          q.Stop.AggIndex,
		BlocksFetched:     res.BlocksFetched,
		RowsCovered:       res.RowsCovered,
		Rounds:            res.Rounds,
		StartBlock:        res.StartBlock,
		Stopped:           res.Stopped,
		Exhausted:         res.Exhausted,
		Aborted:           res.Aborted,
		Degraded:          res.Degraded,
		QuarantinedBlocks: res.QuarantinedBlocks,
		Duration:          res.Duration,
		Groups:            groupsFromExec(res.Groups),
	}
	return out, nil
}

// groupsFromExec converts the exec-layer group answers of one look, or
// of the result, into freshly allocated slices: nil for no groups.
func groupsFromExec(gs []exec.GroupResult) []GroupResult {
	if len(gs) == 0 {
		return nil
	}
	na := len(gs[0].Aggs)
	out, answers := make([]GroupResult, len(gs)), make([]Interval, len(gs)*na)
	for g, eg := range gs {
		ans := answers[g*na : (g+1)*na : (g+1)*na]
		for i, a := range eg.Aggs {
			ans[i] = fromCI(a.Interval)
		}
		out[g] = GroupResult{Key: eg.Key, Answers: ans, Samples: eg.Samples, Exact: eg.Exact}
	}
	return out
}

// ExactGroup is one group's exact aggregate values.
type ExactGroup struct {
	Key string `json:"key"`
	// Count is the group's row count (the exact twin of
	// GroupResult.Samples).
	Count int `json:"count"`
	// Stats holds one exact value per SELECT-list aggregate, aligned
	// with the ExactResult's Aggs list.
	Stats []float64 `json:"stats"`
}

// ExactResult is the exact evaluation of a query via a full scan.
type ExactResult struct {
	// Aggs lists every SELECT-list aggregate in order; each group's
	// Stats slice aligns with it.
	Aggs     []Agg         `json:"aggs"`
	Groups   []ExactGroup  `json:"groups"`
	Duration time.Duration `json:"duration_ns"`
}

// Group returns the exact values for a key, or nil. Groups is sorted
// by Key, so the lookup is a binary search.
func (r *ExactResult) Group(key string) *ExactGroup {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return &r.Groups[i]
	}
	return nil
}

// QueryExact evaluates the query exactly (the paper's Exact baseline,
// and what a SQL EXACT tail runs): the round engine scans the whole
// table from block 0 and reports the finalized values.
// The context is checked at five points of the scan — after 1/16, 1/8,
// 1/4 and 1/2 of the rows and at the end; an exact answer has no valid
// partial form, so a cancelled run returns ctx.Err() at the next of them.
// Options are accepted for symmetry with Query and ignored.
func (t *Table) QueryExact(ctx context.Context, q QueryBuilder, _ ...Option) (*ExactResult, error) {
	qq := q.build()
	res, err := exec.RunExact(ctx, t.t, qq)
	if err != nil {
		return nil, err
	}
	out := &ExactResult{Aggs: aggsOf(qq), Duration: res.Duration}
	for _, g := range res.Groups {
		stats := make([]float64, len(g.Aggs))
		for k, a := range g.Aggs {
			stats[k] = a.Interval.Estimate
		}
		out.Groups = append(out.Groups, ExactGroup{Key: g.Key, Count: g.Samples, Stats: stats})
	}
	return out, nil
}
