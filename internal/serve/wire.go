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
//
// An answer travels as the JSON encoding of fastframe's own Result,
// Progress or ExactResult, whose field tags name the wire keys; this
// package declares only the envelopes around them (QueryResponse,
// StreamLine, ErrorResponse, Stats).
package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"fastframe"
)

// QueryRequest is the body of POST /v1/query and POST /v1/stream.
type QueryRequest struct {
	// SQL is the statement text (the Engine grammar, '?' placeholders
	// allowed when Args are given).
	SQL string `json:"sql"`
	// Args bind the statement's '?' placeholders in text order. JSON
	// numbers bind integer slots (LIMIT) when integral and float slots
	// otherwise.
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
// one of Result and Exact is set, matching QueryRequest.Exact. Every
// field of both round-trips losslessly (encoding/json renders float64
// with the shortest representation that parses back to the same bits)
// except the wall-clock Duration.
type QueryResponse struct {
	Result     *fastframe.Result      `json:"result,omitempty"`
	Exact      *fastframe.ExactResult `json:"exact,omitempty"`
	Accounting Accounting             `json:"accounting"`
}

// StreamLine is one NDJSON line (or SSE data payload) of POST
// /v1/stream: per-round lines carry Progress, the terminal line
// carries Result (with Accounting) or Error.
type StreamLine struct {
	Progress   *fastframe.Progress `json:"progress,omitempty"`
	Result     *fastframe.Result   `json:"result,omitempty"`
	Accounting *Accounting         `json:"accounting,omitempty"`
	Error      *ErrorBody          `json:"error,omitempty"`
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

// FromResult returns r unchanged: a Result is its own wire form. It and
// FromProgress stay only for bench/trace.go, which times the wire
// encoding through them.
func FromResult(r *fastframe.Result) *fastframe.Result { return r }

// FromProgress returns &p: a Progress is its own wire form.
func FromProgress(p fastframe.Progress) *fastframe.Progress { return &p }

// DecodeArgs normalizes JSON-decoded bind arguments for Template.Bind:
// json.Number values (the request decoder runs with UseNumber so
// integer slots such as LIMIT survive) become int64 when integral —
// however written: 5, 5.0 and 5e0 alike — and float64 otherwise;
// strings pass through; anything else is rejected here with its
// position, before binding starts.
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
			out[i] = integral(f)
		case float64:
			// A decoder without UseNumber delivers float64.
			out[i] = integral(v)
		case bool, nil:
			return nil, fmt.Errorf("serve: arg %d: want a string or number, got %v", i+1, a)
		default:
			return nil, fmt.Errorf("serve: arg %d: want a string or number, got %T", i+1, a)
		}
	}
	return out, nil
}

// integral returns f as an int64 when it is a whole number that float64
// holds exactly, so an integer slot accepts it, and f itself otherwise.
func integral(f float64) any {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return int64(f)
	}
	return f
}
