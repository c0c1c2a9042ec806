// Package serve is the HTTP face of FastFrame: a multi-tenant
// online-aggregation query service over one long-lived Engine. A
// Server owns per-token tenants — each with its own session δ budget,
// token-bucket rate limit and concurrency cap — and maps the existing
// public surface (Engine.Query / Stmt / Rows) onto five endpoints:
//
//	POST /v1/query    one-shot JSON query → groups/estimates/CIs
//	POST /v1/stream   NDJSON (or SSE) — one line per round, final last
//	GET  /v1/explain  logical plan rendering
//	GET  /v1/stats    in-memory usage counters, per tenant and global
//	GET  /healthz     liveness (unauthenticated)
//
// Usage accounting runs off the query path through an async batched
// accounter, and Shutdown degrades gracefully: in-flight queries abort
// at the next round boundary, so every streamed response still ends
// with a valid (1−δ) partial interval — the paper's guarantee is never
// silently truncated.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"fastframe"
	"fastframe/internal/query"
)

// QueryRequest is the body of POST /v1/query and POST /v1/stream.
type QueryRequest struct {
	// SQL is the statement text (the Engine grammar, '?' placeholders
	// allowed when Args are given).
	SQL string `json:"sql"`
	// Args bind the statement's '?' placeholders in text order. JSON
	// numbers bind integer slots (LIMIT, PARALLEL) when integral and
	// float slots otherwise.
	Args []any `json:"args,omitempty"`
	// Exact evaluates the statement exactly (the engine run to
	// exhaustion, δ-free) instead of approximately; the tail stopping
	// clause is ignored and the response carries ExactResult instead of
	// Result.
	Exact bool `json:"exact,omitempty"`
	// MaxRows, when positive, stops the scan after covering this many
	// rows even if the stopping clause has not been met; the partial
	// intervals remain valid.
	MaxRows int `json:"max_rows,omitempty"`
}

// Interval mirrors fastframe.Interval on the wire.
type Interval struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Estimate float64 `json:"estimate"`
}

// Group mirrors fastframe.GroupResult on the wire.
type Group struct {
	Key string `json:"key"`
	// Answers carries one interval per SELECT-list aggregate, aligned
	// with the enclosing Result/Progress Aggs list.
	Answers []Interval `json:"answers"`
	Samples int        `json:"samples"`
	Exact   bool       `json:"exact"`
}

// Result mirrors fastframe.Result on the wire. Every field except the
// wall-clock DurationNS round-trips losslessly (encoding/json renders
// float64 with the shortest representation that parses back to the
// identical bits), so ToResult(FromResult(r)) reproduces r exactly.
type Result struct {
	// Aggs names every SELECT-list aggregate in order (AVG | SUM | COUNT
	// | MEDIAN | PERCENTILE | VAR | STDDEV | COUNT DISTINCT); group
	// Answers align with it. AggIndex is the position of the one a
	// HAVING / ORDER BY stopping rule watched.
	Aggs          []string `json:"aggs"`
	AggIndex      int      `json:"agg_index"`
	Groups        []Group  `json:"groups"`
	BlocksFetched int      `json:"blocks_fetched"`
	RowsCovered   int      `json:"rows_covered"`
	Rounds        int      `json:"rounds"`
	StartBlock    int      `json:"start_block"`
	Stopped       bool     `json:"stopped"`
	Exhausted     bool     `json:"exhausted"`
	Aborted       bool     `json:"aborted"`
	// Degraded and QuarantinedBlocks report storage loss under degraded
	// reads: quarantined blocks the scan skipped, charged at worst case
	// so the intervals stay conservatively valid.
	Degraded          bool  `json:"degraded,omitempty"`
	QuarantinedBlocks int   `json:"quarantined_blocks,omitempty"`
	DurationNS        int64 `json:"duration_ns"`
}

// Progress mirrors fastframe.Progress on the wire: one per-round
// snapshot of a streaming query.
type Progress struct {
	Aggs              []string `json:"aggs"`
	Round             int      `json:"round"`
	RowsCovered       int      `json:"rows_covered"`
	BlocksFetched     int      `json:"blocks_fetched"`
	ActiveGroups      int      `json:"active_groups"`
	Degraded          bool     `json:"degraded,omitempty"`
	QuarantinedBlocks int      `json:"quarantined_blocks,omitempty"`
	Groups            []Group  `json:"groups"`
}

// ExactGroup mirrors fastframe.ExactGroup on the wire.
type ExactGroup struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
	// Stats carries one exact value per SELECT-list aggregate, aligned
	// with the enclosing ExactResult's Aggs list.
	Stats []float64 `json:"stats"`
}

// ExactResult mirrors fastframe.ExactResult on the wire.
type ExactResult struct {
	Aggs       []string     `json:"aggs"`
	Groups     []ExactGroup `json:"groups"`
	DurationNS int64        `json:"duration_ns"`
}

// Accounting reports what one query charged its tenant.
type Accounting struct {
	Tenant string `json:"tenant"`
	// DeltaCharged is the error probability this answer consumed from
	// the tenant's budget (0 for exact answers and failed runs).
	DeltaCharged float64 `json:"delta_charged"`
	// DeltaSpent and DeltaBudget are the tenant's running union bound
	// and its cap (budget 0 = untracked).
	DeltaSpent  float64 `json:"delta_spent"`
	DeltaBudget float64 `json:"delta_budget,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query. Exactly
// one of Result and Exact is set, matching QueryRequest.Exact.
type QueryResponse struct {
	Result     *Result      `json:"result,omitempty"`
	Exact      *ExactResult `json:"exact,omitempty"`
	Accounting Accounting   `json:"accounting"`
}

// StreamLine is one NDJSON line (or SSE data payload) of POST
// /v1/stream: per-round lines carry Progress, the terminal line
// carries Result (with Accounting) or Error.
type StreamLine struct {
	Progress   *Progress   `json:"progress,omitempty"`
	Result     *Result     `json:"result,omitempty"`
	Accounting *Accounting `json:"accounting,omitempty"`
	Error      *ErrorBody  `json:"error,omitempty"`
}

// ErrorBody is the structured error payload every non-2xx response
// (and terminal stream error line) carries under "error".
type ErrorBody struct {
	// Code is a stable machine-readable cause: unauthorized,
	// bad_request, sql_error, rate_limited, budget_exhausted,
	// concurrency_exceeded, shutting_down, storage_error, internal.
	Code    string `json:"code"`
	Message string `json:"message"`
	Tenant  string `json:"tenant,omitempty"`
	// RetryAfterSeconds accompanies rate_limited rejections: the whole
	// seconds until the tenant's token bucket readmits (also sent as the
	// HTTP Retry-After header).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// ErrorResponse is the body of a non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

func (e *ErrorBody) String() string {
	if e.Tenant != "" {
		return fmt.Sprintf("%s (tenant %s): %s", e.Code, e.Tenant, e.Message)
	}
	return e.Code + ": " + e.Message
}

// ExplainResponse is the body of GET /v1/explain.
type ExplainResponse struct {
	SQL  string `json:"sql"`
	Plan string `json:"plan"`
}

func fromInterval(iv fastframe.Interval) Interval {
	return Interval{Lo: iv.Lo, Hi: iv.Hi, Estimate: iv.Estimate}
}

func (iv Interval) toInterval() fastframe.Interval {
	return fastframe.Interval{Lo: iv.Lo, Hi: iv.Hi, Estimate: iv.Estimate}
}

func fromGroup(g fastframe.GroupResult) Group {
	out := Group{Key: g.Key, Samples: g.Samples, Exact: g.Exact, Answers: make([]Interval, len(g.Answers))}
	for i, iv := range g.Answers {
		out.Answers[i] = fromInterval(iv)
	}
	return out
}

func (g Group) toGroup() fastframe.GroupResult {
	out := fastframe.GroupResult{Key: g.Key, Samples: g.Samples, Exact: g.Exact}
	for _, iv := range g.Answers {
		out.Answers = append(out.Answers, iv.toInterval())
	}
	return out
}

// fromAggs and toAggs map the SELECT-list aggregate names.
func fromAggs(aggs []fastframe.Agg) []string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.String()
	}
	return out
}

func toAggs(names []string) ([]fastframe.Agg, error) {
	out := make([]fastframe.Agg, len(names))
	for i, s := range names {
		k, err := query.ParseAggKind(s)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		out[i] = fastframe.Agg(k)
	}
	return out, nil
}

// FromResult maps a Result onto its wire form.
func FromResult(r *fastframe.Result) *Result {
	out := &Result{
		Aggs:          fromAggs(r.Aggs),
		AggIndex:      r.AggIndex,
		BlocksFetched: r.BlocksFetched,
		RowsCovered:   r.RowsCovered,
		Rounds:        r.Rounds,
		StartBlock:    r.StartBlock,
		Stopped:       r.Stopped,
		Exhausted:     r.Exhausted,
		Aborted:       r.Aborted,

		Degraded:          r.Degraded,
		QuarantinedBlocks: r.QuarantinedBlocks,
		DurationNS:        r.Duration.Nanoseconds(),
	}
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, fromGroup(g))
	}
	return out
}

// ToResult maps a wire Result back onto the in-process type —
// the inverse of FromResult.
func (r *Result) ToResult() (*fastframe.Result, error) {
	aggs, err := toAggs(r.Aggs)
	if err != nil {
		return nil, err
	}
	out := &fastframe.Result{
		Aggs:          aggs,
		AggIndex:      r.AggIndex,
		BlocksFetched: r.BlocksFetched,
		RowsCovered:   r.RowsCovered,
		Rounds:        r.Rounds,
		StartBlock:    r.StartBlock,
		Stopped:       r.Stopped,
		Exhausted:     r.Exhausted,
		Aborted:       r.Aborted,

		Degraded:          r.Degraded,
		QuarantinedBlocks: r.QuarantinedBlocks,
		Duration:          time.Duration(r.DurationNS),
	}
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, g.toGroup())
	}
	return out, nil
}

// FromProgress maps a Progress snapshot onto its wire form.
func FromProgress(p fastframe.Progress) *Progress {
	out := &Progress{
		Aggs:          fromAggs(p.Aggs),
		Round:         p.Round,
		RowsCovered:   p.RowsCovered,
		BlocksFetched: p.BlocksFetched,
		ActiveGroups:  p.ActiveGroups,

		Degraded:          p.Degraded,
		QuarantinedBlocks: p.QuarantinedBlocks,
	}
	for _, g := range p.Groups {
		out.Groups = append(out.Groups, fromGroup(g))
	}
	return out
}

// ToProgress maps a wire Progress back onto the in-process type.
func (p *Progress) ToProgress() (fastframe.Progress, error) {
	aggs, err := toAggs(p.Aggs)
	if err != nil {
		return fastframe.Progress{}, err
	}
	out := fastframe.Progress{
		Aggs:          aggs,
		Round:         p.Round,
		RowsCovered:   p.RowsCovered,
		BlocksFetched: p.BlocksFetched,
		ActiveGroups:  p.ActiveGroups,

		Degraded:          p.Degraded,
		QuarantinedBlocks: p.QuarantinedBlocks,
	}
	for _, g := range p.Groups {
		out.Groups = append(out.Groups, g.toGroup())
	}
	return out, nil
}

// FromExactResult maps an ExactResult onto its wire form.
func FromExactResult(r *fastframe.ExactResult) *ExactResult {
	out := &ExactResult{Aggs: fromAggs(r.Aggs), DurationNS: r.Duration.Nanoseconds()}
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, ExactGroup{Key: g.Key, Count: g.Count, Stats: g.Stats})
	}
	return out
}

// ToExactResult maps a wire ExactResult back onto the in-process type.
func (r *ExactResult) ToExactResult() (*fastframe.ExactResult, error) {
	aggs, err := toAggs(r.Aggs)
	if err != nil {
		return nil, err
	}
	out := &fastframe.ExactResult{Aggs: aggs, Duration: time.Duration(r.DurationNS)}
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, fastframe.ExactGroup{Key: g.Key, Count: g.Count, Stats: g.Stats})
	}
	return out, nil
}

// DecodeArgs normalizes JSON-decoded bind arguments for Template.Bind:
// json.Number values (the request decoder runs with UseNumber so
// LIMIT/PARALLEL slots survive) become int64 when integral and float64
// otherwise; strings pass through; anything else is rejected here with
// its position, before binding starts.
func DecodeArgs(raw []any) ([]any, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]any, len(raw))
	for i, a := range raw {
		switch v := a.(type) {
		case string:
			out[i] = v
		case json.Number:
			if n, err := v.Int64(); err == nil {
				out[i] = n
				continue
			}
			f, err := v.Float64()
			if err != nil {
				return nil, fmt.Errorf("serve: arg %d: unparseable number %q", i+1, v.String())
			}
			out[i] = f
		case float64:
			// A decoder without UseNumber delivers float64; preserve
			// integral values for integer slots.
			if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
				out[i] = int64(v)
			} else {
				out[i] = v
			}
		case bool, nil:
			return nil, fmt.Errorf("serve: arg %d: want a string or number, got %v", i+1, a)
		default:
			return nil, fmt.Errorf("serve: arg %d: want a string or number, got %T", i+1, a)
		}
	}
	return out, nil
}
