package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TenantConfig declares one tenant of the service: a bearer token and
// the limits its queries run under. The zero limits mean "unbounded"
// (and the engine's per-query δ), so a bare name=token spec admits
// everything — tighten per tenant as needed.
type TenantConfig struct {
	// Name identifies the tenant in stats, usage records and errors.
	Name string
	// Token is the bearer token presented as "Authorization: Bearer
	// <token>". An empty token declares the anonymous tenant: requests
	// carrying no Authorization header run under it.
	Token string
	// DeltaBudget caps the union-bound error probability across all of
	// the tenant's approximate answers — its private SessionDelta pool.
	// Once spent, further approximate queries get 429 budget_exhausted
	// until the daemon restarts. 0 = untracked.
	DeltaBudget float64
	// QueryDelta is the per-query δ the tenant's queries run with
	// (fastframe.WithDelta). 0 = the engine's session default.
	QueryDelta float64
	// RatePerSec admits at most this many queries per second
	// (token bucket, capacity Burst). 0 = unlimited.
	RatePerSec float64
	// Burst is the token-bucket capacity (default max(1, RatePerSec)).
	Burst int
	// MaxConcurrent caps the tenant's in-flight queries; excess
	// admissions get 429 concurrency_exceeded. 0 = unlimited.
	MaxConcurrent int
}

// ParseTenantSpec parses the -token flag / token-file line grammar
//
//	name=token[,delta=D][,budget=B][,rate=R][,burst=N][,conc=C]
//
// where delta is the per-query δ, budget the tenant's total δ pool,
// rate queries/second, burst the bucket capacity and conc the
// concurrency cap. delta, budget and rate must be finite and
// non-negative (NaN would disable the budget check and break /v1/stats'
// JSON), and delta below 1. An empty token ("name=") declares the
// anonymous tenant.
func ParseTenantSpec(spec string) (TenantConfig, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return TenantConfig{}, fmt.Errorf("serve: tenant spec %q: want name=token[,key=val...]", spec)
	}
	parts := strings.Split(rest, ",")
	cfg := TenantConfig{Name: name, Token: strings.TrimSpace(parts[0])}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return TenantConfig{}, fmt.Errorf("serve: tenant spec %q: bad option %q (want key=val)", spec, kv)
		}
		switch k {
		case "delta", "budget", "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || (k == "delta" && f >= 1) {
				return TenantConfig{}, fmt.Errorf("serve: tenant spec %q: bad %s %q", spec, k, v)
			}
			switch k {
			case "delta":
				cfg.QueryDelta = f
			case "budget":
				cfg.DeltaBudget = f
			case "rate":
				cfg.RatePerSec = f
			}
		case "burst", "conc":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return TenantConfig{}, fmt.Errorf("serve: tenant spec %q: bad %s %q", spec, k, v)
			}
			if k == "burst" {
				cfg.Burst = n
			} else {
				cfg.MaxConcurrent = n
			}
		default:
			return TenantConfig{}, fmt.Errorf("serve: tenant spec %q: unknown option %q", spec, k)
		}
	}
	return cfg, nil
}

// ParseTenantFile reads one ParseTenantSpec line per tenant; blank
// lines and #-comments are skipped.
func ParseTenantFile(r io.Reader) ([]TenantConfig, error) {
	var out []TenantConfig
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cfg, err := ParseTenantSpec(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, cfg)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// tenant is the runtime state behind one TenantConfig. Budget and
// concurrency bookkeeping is synchronous (admission must see it);
// everything heavier goes through the async accounter.
type tenant struct {
	cfg    TenantConfig
	bucket *tokenBucket

	mu       sync.Mutex
	spent    float64 // union-bound δ consumed by produced approximate answers
	reserved float64 // δ held by in-flight approximate queries
	inflight int
	queries  int // produced results (mirrors Engine.QueriesRun semantics)
	rejected struct {
		rate, budget, concurrency int
	}
}

// TenantUsage is one tenant's /v1/stats snapshot.
type TenantUsage struct {
	Name           string  `json:"name"`
	Queries        int     `json:"queries"`
	InFlight       int     `json:"in_flight"`
	DeltaSpent     float64 `json:"delta_spent"`
	DeltaBudget    float64 `json:"delta_budget,omitempty"`
	RejectedRate   int     `json:"rejected_rate_limit"`
	RejectedOver   int     `json:"rejected_budget"`
	RejectedConc   int     `json:"rejected_concurrency"`
	RoundsStreamed int     `json:"rounds_streamed"`
	RowsScanned    int64   `json:"rows_scanned"`
	BlocksFetched  int64   `json:"blocks_fetched"`
}

// admit runs the tenant's full admission pipeline for one query:
// token-bucket rate limit first (a rate rejection charges nothing —
// the recordRun rule), then the concurrency cap, then a reservation of
// delta against the δ budget (skipped for exact queries, which are
// deterministic and δ-free). On success it returns a release callback
// the handler MUST call exactly once with the query's outcome: a run
// that failed to produce a result — or produced an exact one —
// refunds its reservation; a produced approximate answer converts the
// reservation into spend.
func (t *tenant) admit(delta float64, exact bool) (release func(produced bool), errb *ErrorBody) {
	if ok, wait := t.bucket.allow(); !ok {
		t.mu.Lock()
		t.rejected.rate++
		t.mu.Unlock()
		// Round the refill deficit up to whole seconds (minimum 1: a
		// sub-second wait must not round to "retry immediately").
		retry := int(math.Ceil(wait.Seconds()))
		if retry < 1 {
			retry = 1
		}
		return nil, &ErrorBody{
			Code:              "rate_limited",
			Message:           fmt.Sprintf("rate limit %g queries/s exceeded; retry in %ds", t.cfg.RatePerSec, retry),
			Tenant:            t.cfg.Name,
			RetryAfterSeconds: retry,
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxConcurrent > 0 && t.inflight >= t.cfg.MaxConcurrent {
		t.rejected.concurrency++
		return nil, &ErrorBody{
			Code:    "concurrency_exceeded",
			Message: fmt.Sprintf("%d queries already in flight (cap %d)", t.inflight, t.cfg.MaxConcurrent),
			Tenant:  t.cfg.Name,
		}
	}
	reserve := 0.0
	if !exact {
		reserve = delta
		if t.cfg.DeltaBudget > 0 && t.spent+t.reserved+reserve > t.cfg.DeltaBudget {
			t.rejected.budget++
			return nil, &ErrorBody{
				Code: "budget_exhausted",
				Message: fmt.Sprintf("session δ budget exhausted: spent %.3g + query δ %.3g exceeds budget %.3g",
					t.spent+t.reserved, reserve, t.cfg.DeltaBudget),
				Tenant: t.cfg.Name,
			}
		}
	}
	t.inflight++
	t.reserved += reserve
	var once sync.Once
	return func(produced bool) {
		once.Do(func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.inflight--
			t.reserved -= reserve
			if produced {
				t.queries++
				t.spent += reserve // 0 for exact: δ-free by construction
			}
		})
	}, nil
}

// usage snapshots the synchronous counters (the accounter merges in
// the asynchronous ones).
func (t *tenant) usage() TenantUsage {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TenantUsage{
		Name:         t.cfg.Name,
		Queries:      t.queries,
		InFlight:     t.inflight,
		DeltaSpent:   t.spent,
		DeltaBudget:  t.cfg.DeltaBudget,
		RejectedRate: t.rejected.rate,
		RejectedOver: t.rejected.budget,
		RejectedConc: t.rejected.concurrency,
	}
}

// deltaSpent returns the tenant's consumed δ (produced approximate
// answers only, reservations excluded).
func (t *tenant) deltaSpent() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// registry resolves bearer tokens to tenants.
type registry struct {
	byToken map[string]*tenant
	byName  map[string]*tenant
	anon    *tenant // token-less tenant, nil when not configured
}

func newRegistry(cfgs []TenantConfig, now func() time.Time) (*registry, error) {
	r := &registry{
		byToken: make(map[string]*tenant, len(cfgs)),
		byName:  make(map[string]*tenant, len(cfgs)),
	}
	for _, cfg := range cfgs {
		if cfg.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if _, dup := r.byName[cfg.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant name %q", cfg.Name)
		}
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(cfg.RatePerSec)
		}
		t := &tenant{cfg: cfg, bucket: newTokenBucket(cfg.RatePerSec, burst, now)}
		r.byName[cfg.Name] = t
		if cfg.Token == "" {
			if r.anon != nil {
				return nil, fmt.Errorf("serve: more than one anonymous (token-less) tenant")
			}
			r.anon = t
			continue
		}
		if _, dup := r.byToken[cfg.Token]; dup {
			return nil, fmt.Errorf("serve: tenants share a token")
		}
		r.byToken[cfg.Token] = t
	}
	return r, nil
}

// authenticate resolves the Authorization header value to a tenant.
func (r *registry) authenticate(header string) (*tenant, *ErrorBody) {
	if header == "" {
		if r.anon != nil {
			return r.anon, nil
		}
		return nil, &ErrorBody{Code: "unauthorized", Message: "missing Authorization: Bearer <token> header"}
	}
	token, ok := strings.CutPrefix(header, "Bearer ")
	if !ok {
		return nil, &ErrorBody{Code: "unauthorized", Message: "malformed Authorization header: want Bearer <token>"}
	}
	if t, ok := r.byToken[strings.TrimSpace(token)]; ok {
		return t, nil
	}
	return nil, &ErrorBody{Code: "unauthorized", Message: "unknown token"}
}

// names returns the tenant names, sorted.
func (r *registry) names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
