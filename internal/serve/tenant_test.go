package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTenantSpec(t *testing.T) {
	got, err := ParseTenantSpec("acme=s3cret,delta=0.01,budget=0.2,rate=5,burst=10,conc=4")
	if err != nil {
		t.Fatal(err)
	}
	want := TenantConfig{Name: "acme", Token: "s3cret", QueryDelta: 0.01, DeltaBudget: 0.2, RatePerSec: 5, Burst: 10, MaxConcurrent: 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseTenantSpec = %+v, want %+v", got, want)
	}

	// Bare name=token and the anonymous form.
	if got, err := ParseTenantSpec("a=t"); err != nil || got.Name != "a" || got.Token != "t" {
		t.Errorf("bare spec: %+v %v", got, err)
	}
	if got, err := ParseTenantSpec("anon="); err != nil || got.Token != "" {
		t.Errorf("anonymous spec: %+v %v", got, err)
	}

	for _, bad := range []string{"", "noequals", "=tok", "a=t,rate", "a=t,rate=x", "a=t,rate=-1", "a=t,conc=-2", "a=t,teleport=1"} {
		if _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted", bad)
		}
	}
}

// TestParseTenantSpecLimits: delta, budget and rate take finite,
// non-negative values, and delta stays below 1. A NaN budget used to
// parse, let every query through (NaN > 0 is false) and made /v1/stats
// fail to encode; so did +Inf.
func TestParseTenantSpecLimits(t *testing.T) {
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"a=t,budget=NaN", false},
		{"a=t,budget=+Inf", false},
		{"a=t,budget=inf", false},
		{"a=t,delta=NaN", false},
		{"a=t,delta=1", false},
		{"a=t,delta=7", false},
		{"a=t,delta=-Inf", false},
		{"a=t,rate=Inf", false},
		{"a=t,rate=nan", false},
		{"a=t,rate=1e400", false}, // out of range: ParseFloat's +Inf
		{"a=t,delta=0.999,budget=5,rate=1e300", true},
		{"a=t,delta=0,budget=0,rate=0", true},
	} {
		cfg, err := ParseTenantSpec(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("ParseTenantSpec(%q) = %+v, %v; want ok = %v", c.spec, cfg, err, c.ok)
			continue
		}
		if c.ok {
			checkAcceptedSpec(t, cfg)
		}
	}
}

// FuzzParseTenantSpec: whatever the -token flag or a token file holds,
// an accepted spec carries limits admission can compare and /v1/stats
// can encode.
func FuzzParseTenantSpec(f *testing.F) {
	for _, s := range []string{
		"acme=s3cret,delta=0.01,budget=0.2,rate=5,burst=10,conc=4",
		"anon=", "a=t,budget=NaN", "a=t,rate=Inf", "a=t,delta=1", "a=t,conc=-2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if cfg, err := ParseTenantSpec(spec); err == nil {
			checkAcceptedSpec(t, cfg)
		}
	})
}

// checkAcceptedSpec requires finite, non-negative limits, a per-query δ
// below 1, a registry that takes the tenant, and usage that encodes.
func checkAcceptedSpec(t *testing.T, cfg TenantConfig) {
	t.Helper()
	for _, v := range []float64{cfg.QueryDelta, cfg.DeltaBudget, cfg.RatePerSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("accepted %+v: limit %v", cfg, v)
		}
	}
	if cfg.QueryDelta >= 1 || cfg.Burst < 0 || cfg.MaxConcurrent < 0 {
		t.Fatalf("accepted %+v", cfg)
	}
	r, err := newRegistry([]TenantConfig{cfg}, nil)
	if err != nil {
		t.Fatalf("accepted %+v, registry refused it: %v", cfg, err)
	}
	if _, err := json.Marshal(r.byName[cfg.Name].usage()); err != nil {
		t.Fatalf("accepted %+v, usage does not encode: %v", cfg, err)
	}
}

func TestParseTenantFile(t *testing.T) {
	const file = `
# production tenants
acme=s3cret,budget=0.5

beta=tok2,rate=2
`
	got, err := ParseTenantFile(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "acme" || got[1].Name != "beta" || got[1].RatePerSec != 2 {
		t.Errorf("ParseTenantFile = %+v", got)
	}
	if _, err := ParseTenantFile(strings.NewReader("ok=t\nbroken")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad line error = %v", err)
	}
}

// fakeClock is a hand-advanced clock for rate-limit tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTokenBucket(2, 2, clk.Now)
	admit := func(b *tokenBucket) bool { ok, _ := b.allow(); return ok }

	// The bucket starts full at its burst capacity.
	if !admit(tb) || !admit(tb) {
		t.Fatal("burst capacity not available")
	}
	// An empty bucket reports the exact refill deficit: one full token
	// at 2/s is half a second away.
	if ok, wait := tb.allow(); ok {
		t.Fatal("admission beyond burst")
	} else if wait != 500*time.Millisecond {
		t.Fatalf("empty-bucket wait = %v, want 500ms", wait)
	}
	// Refill is continuous: 2/s means half a second buys one token, and
	// the reported wait shrinks with the accrued fraction.
	clk.Advance(499 * time.Millisecond)
	if ok, wait := tb.allow(); ok {
		t.Fatal("admitted before a full token accrued")
	} else if wait != 1*time.Millisecond {
		t.Fatalf("near-full wait = %v, want 1ms", wait)
	}
	clk.Advance(1 * time.Millisecond)
	if !admit(tb) {
		t.Fatal("token not refilled")
	}
	// Refill caps at burst.
	clk.Advance(time.Hour)
	if !admit(tb) || !admit(tb) {
		t.Fatal("bucket not refilled to burst")
	}
	if admit(tb) {
		t.Fatal("refill exceeded burst")
	}

	// rate 0 = unlimited; burst < 1 is raised to 1.
	free := newTokenBucket(0, 0, clk.Now)
	for i := 0; i < 100; i++ {
		if ok, wait := free.allow(); !ok || wait != 0 {
			t.Fatal("unlimited bucket refused")
		}
	}
	one := newTokenBucket(1, 0, clk.Now)
	if !admit(one) {
		t.Fatal("burst<1 bucket should still hold one token")
	}

	// A slow bucket's deficit spans whole seconds: 0.25/s from empty is
	// 4 s to the next token.
	slow := newTokenBucket(0.25, 1, clk.Now)
	if !admit(slow) {
		t.Fatal("slow bucket's single burst token missing")
	}
	if ok, wait := slow.allow(); ok {
		t.Fatal("slow bucket over-admitted")
	} else if wait != 4*time.Second {
		t.Fatalf("slow-bucket wait = %v, want 4s", wait)
	}
}

// TestTenantBudgetIsolation is the multi-tenant acceptance test: tenant
// A exhausting its δ budget gets a structured 429 while tenant B — with
// a live streamed query in flight throughout — is unaffected.
func TestTenantBudgetIsolation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{
			{Name: "a", Token: "ta", QueryDelta: 0.05, DeltaBudget: 0.12},
			{Name: "b", Token: "tb"},
		},
		Options: longStreamOptions(),
	})

	// B opens a stream and keeps it live across A's whole session.
	sc, closeBody := startStream(t, context.Background(), ts.URL, "tb", neverSQL)
	defer closeBody()
	if line, ok := readLine(t, sc); !ok || line.Progress == nil {
		t.Fatalf("tenant B first round: %+v", line)
	}

	q := QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}
	// A's budget 0.12 at δ=0.05/query admits exactly two queries.
	for i := 1; i <= 2; i++ {
		resp, errb := wireQuery(t, ts.URL, "ta", q)
		if errb != nil {
			t.Fatalf("query %d rejected: %+v", i, errb)
		}
		if resp.Accounting.DeltaCharged != 0.05 {
			t.Errorf("query %d charged %g", i, resp.Accounting.DeltaCharged)
		}
		if want := 0.05 * float64(i); resp.Accounting.DeltaSpent != want {
			t.Errorf("query %d spent %g, want %g", i, resp.Accounting.DeltaSpent, want)
		}
	}
	_, errb := wireQuery(t, ts.URL, "ta", q)
	if errb == nil {
		t.Fatal("third query admitted beyond budget")
	}
	if errb.Code != "budget_exhausted" || errb.Tenant != "a" {
		t.Errorf("error body = %+v", errb)
	}
	if !strings.Contains(errb.Message, "budget") {
		t.Errorf("message = %q", errb.Message)
	}

	// A's failed admissions did not touch B: the stream is still live
	// and runs to its terminal line.
	if line, ok := readLine(t, sc); !ok || line.Progress == nil {
		t.Fatalf("tenant B stream broken after A's rejections: %+v", line)
	}
	for {
		line, ok := readLine(t, sc)
		if !ok {
			t.Fatal("tenant B stream ended without a terminal line")
		}
		if line.Progress != nil {
			continue
		}
		if line.Error != nil || line.Result == nil {
			t.Fatalf("tenant B terminal line: %+v", line)
		}
		if line.Accounting == nil || line.Accounting.Tenant != "b" {
			t.Fatalf("tenant B accounting: %+v", line.Accounting)
		}
		break
	}

	// An EXACT query is δ-free, so it is admitted even after exhaustion.
	resp, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT COUNT(*) FROM flights", Exact: true})
	if errb != nil {
		t.Fatalf("exact query after exhaustion rejected: %+v", errb)
	}
	if resp.Accounting.DeltaCharged != 0 || resp.Accounting.DeltaSpent != 0.1 {
		t.Errorf("exact accounting = %+v", resp.Accounting)
	}
}

// TestRateLimitChargesNothing checks the recordRun rule on the wire: a
// rate-limited rejection consumes neither δ nor a produced-query slot.
func TestRateLimitChargesNothing(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta", QueryDelta: 0.01, DeltaBudget: 1, RatePerSec: 1, Burst: 1}},
		now:     clk.Now,
	})
	q := QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}

	if _, errb := wireQuery(t, ts.URL, "ta", q); errb != nil {
		t.Fatalf("first query: %+v", errb)
	}
	_, errb := wireQuery(t, ts.URL, "ta", q)
	if errb == nil || errb.Code != "rate_limited" || errb.Tenant != "a" {
		t.Fatalf("second query error = %+v", errb)
	}

	ten := srv.tenants.byName["a"]
	if got := ten.deltaSpent(); got != 0.01 {
		t.Errorf("δ spent after rate rejection = %g, want 0.01 (rejections charge nothing)", got)
	}
	u := ten.usage()
	if u.Queries != 1 || u.RejectedRate != 1 {
		t.Errorf("usage after rejection = %+v", u)
	}

	// A second later the bucket holds a token again.
	clk.Advance(time.Second)
	if _, errb := wireQuery(t, ts.URL, "ta", q); errb != nil {
		t.Fatalf("query after refill: %+v", errb)
	}
	if got := ten.deltaSpent(); got != 0.02 {
		t.Errorf("δ spent = %g, want 0.02", got)
	}
}

// TestFailedRunChargesNothing: a query that produces no result refunds
// its δ reservation.
func TestFailedRunChargesNothing(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta", QueryDelta: 0.05, DeltaBudget: 0.1}},
	})
	if _, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT AVG(NoSuchColumn) FROM flights WITHIN 50%"}); errb == nil {
		t.Fatal("bad column accepted")
	} else if errb.Code != "sql_error" {
		t.Errorf("code = %q", errb.Code)
	}
	ten := srv.tenants.byName["a"]
	if got := ten.deltaSpent(); got != 0 {
		t.Errorf("failed run charged δ %g", got)
	}
	if u := ten.usage(); u.Queries != 0 {
		t.Errorf("failed run counted as produced: %+v", u)
	}
}

// TestConcurrencyCap: the cap rejects the (cap+1)th in-flight query
// with a structured 429 and frees up as streams finish.
func TestConcurrencyCap(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta", MaxConcurrent: 1}},
		Options: longStreamOptions(),
	})
	// Pin a stream mid-scan so the slot is genuinely held.
	ctx, cancel := context.WithCancel(context.Background())
	w, done := blockedStream(srv, ctx, "ta", neverSQL)
	if line, ok := readBlocked(t, w, done); !ok || line.Progress == nil {
		t.Fatalf("first round: %+v", line)
	}

	_, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"})
	if errb == nil || errb.Code != "concurrency_exceeded" {
		t.Fatalf("second in-flight query error = %+v", errb)
	}

	// Finishing the stream frees the slot.
	cancel()
	drainBlocked(t, w, done)
	if _, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}); errb != nil {
		t.Fatalf("query after slot freed: %+v", errb)
	}
}

func TestRegistryValidation(t *testing.T) {
	cases := [][]TenantConfig{
		{{Name: "", Token: "t"}},
		{{Name: "a", Token: "t"}, {Name: "a", Token: "u"}},
		{{Name: "a", Token: "t"}, {Name: "b", Token: "t"}},
		{{Name: "a"}, {Name: "b"}}, // two anonymous tenants
	}
	for i, cfgs := range cases {
		if _, err := newRegistry(cfgs, nil); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfgs)
		}
	}
}

// TestRateLimitRetryAfter: a rate-limited 429 tells the client exactly
// when to come back — the token bucket's refill deficit, rounded up to
// whole seconds, as both the Retry-After header and the structured
// retry_after_seconds field — and following the advice succeeds.
func TestRateLimitRetryAfter(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	_, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{
			{Name: "slow", Token: "ts", RatePerSec: 0.25, Burst: 1},
			{Name: "fast", Token: "tf", RatePerSec: 2, Burst: 1},
		},
		now: clk.Now,
	})
	q := QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}

	rejected := func(token string) (*http.Response, *ErrorBody) {
		t.Helper()
		resp := postJSON(t, ts.URL, "/v1/query", token, q)
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Code != "rate_limited" {
			t.Fatalf("code = %q", e.Error.Code)
		}
		return resp, &e.Error
	}

	// Burst token consumed; at 0.25/s an empty bucket is 4 s from the
	// next token.
	if _, errb := wireQuery(t, ts.URL, "ts", q); errb != nil {
		t.Fatalf("first query: %+v", errb)
	}
	resp, errb := rejected("ts")
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Errorf("Retry-After = %q, want 4", got)
	}
	if errb.RetryAfterSeconds != 4 {
		t.Errorf("retry_after_seconds = %d, want 4", errb.RetryAfterSeconds)
	}

	// The deficit shrinks as time accrues fractional tokens.
	clk.Advance(time.Second)
	if resp, errb = rejected("ts"); resp.Header.Get("Retry-After") != "3" || errb.RetryAfterSeconds != 3 {
		t.Errorf("after 1s: header %q field %d, want 3/3", resp.Header.Get("Retry-After"), errb.RetryAfterSeconds)
	}

	// Following the advice works: 3 more seconds refills the token.
	clk.Advance(3 * time.Second)
	if _, errb := wireQuery(t, ts.URL, "ts", q); errb != nil {
		t.Fatalf("query after advertised wait: %+v", errb)
	}

	// Sub-second deficits round up to 1, never down to "retry now".
	if _, errb := wireQuery(t, ts.URL, "tf", q); errb != nil {
		t.Fatalf("fast tenant first query: %+v", errb)
	}
	if resp, errb = rejected("tf"); resp.Header.Get("Retry-After") != "1" || errb.RetryAfterSeconds != 1 {
		t.Errorf("sub-second deficit: header %q field %d, want 1/1", resp.Header.Get("Retry-After"), errb.RetryAfterSeconds)
	}

	// Success responses advertise nothing.
	clk.Advance(time.Second)
	okResp := postJSON(t, ts.URL, "/v1/query", "tf", q)
	defer okResp.Body.Close()
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("fast tenant after refill: status %d", okResp.StatusCode)
	}
	if got := okResp.Header.Get("Retry-After"); got != "" {
		t.Errorf("200 carries Retry-After %q", got)
	}
	io.Copy(io.Discard, okResp.Body)
}
