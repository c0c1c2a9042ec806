package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fastframe"
	"fastframe/internal/query"
	"fastframe/internal/testutil"
)

// testTable builds the shared fixture once: small enough to scan in
// milliseconds, large enough for dozens of interval-recomputation
// rounds at the test round size.
var testTable = sync.OnceValues(func() (*fastframe.Table, error) {
	return fastframe.GenerateFlights(30_000, 1)
})

// testOptions pin the server's execution so in-process reference runs
// can reproduce the wire answers exactly.
func testOptions() []fastframe.Option {
	return []fastframe.Option{fastframe.WithSeed(7), fastframe.WithRoundRows(2000)}
}

// newTestServer builds an engine over the shared table and mounts a
// Server on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *fastframe.Engine) {
	t.Helper()
	testutil.GoroutineBaseline(t) // checked last, after the listener below has closed
	tab, err := testTable()
	if err != nil {
		t.Fatal(err)
	}
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		t.Fatal(err)
	}
	srv, ts := mountServer(t, eng, cfg)
	return srv, ts, eng
}

// mountServer fills in the suite's defaults, builds the Server and mounts
// it on an httptest listener; both go away with the test.
func mountServer(t *testing.T, eng *fastframe.Engine, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{{Name: "anonymous"}}
	}
	if cfg.Options == nil {
		cfg.Options = testOptions()
	}
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = 10 * time.Millisecond
	}
	srv, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	// Runs before the listener closes: in-flight queries abort and the
	// accounter goroutine exits, as in ffserved's own shutdown.
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// postJSON POSTs one JSON body and returns the response.
func postJSON(t *testing.T, base, path, token string, body any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wireQuery runs one one-shot query over the wire and decodes it.
func wireQuery(t *testing.T, base, token string, req any) (*QueryResponse, *ErrorBody) {
	t.Helper()
	resp := postJSON(t, base, "/v1/query", token, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with undecodable body: %v", resp.StatusCode, err)
		}
		if got := statusOf(e.Error.Code); got != resp.StatusCode {
			t.Errorf("status %d does not match code %q (want %d)", resp.StatusCode, e.Error.Code, got)
		}
		return nil, &e.Error
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, nil
}

// wireStream runs one streamed query over the wire, returning the
// decoded progress lines and the terminal line.
func wireStream(t *testing.T, base, token string, req QueryRequest) (progress []fastframe.Progress, terminal StreamLine, errb *ErrorBody) {
	t.Helper()
	resp := postJSON(t, base, "/v1/stream", token, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with undecodable body: %v", resp.StatusCode, err)
		}
		return nil, StreamLine{}, &e.Error
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want NDJSON", ct)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var line StreamLine
		if err := dec.Decode(&line); err == io.EOF {
			t.Fatal("stream ended without a terminal line")
		} else if err != nil {
			t.Fatalf("decoding stream line: %v", err)
		}
		if line.Progress != nil {
			progress = append(progress, *line.Progress)
			continue
		}
		return progress, line, nil
	}
}

// zeroDuration strips the only field that cannot reproduce across two
// executions of the same deterministic plan.
func zeroDuration(r *fastframe.Result) *fastframe.Result {
	cp := *r
	cp.Duration = 0
	return &cp
}

// mustJSON renders a value for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireEquivalence is the acceptance property: for a fixed seed,
// the final Result a query produces over the wire — one-shot AND
// streamed — is byte-identical (modulo wall-clock Duration) to the
// same SQL run in-process, across converged, aborted (MaxRows) and
// exact-tail terminations at P ∈ {1, 4}.
func TestWireEquivalence(t *testing.T) {
	_, ts, eng := newTestServer(t, Config{})
	cases := []struct {
		name    string
		sql     string
		maxRows int
	}{
		{"converged", "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 20%", 0},
		{"aborted", "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN ABS 0.000001", 5_000},
		{"exact", "SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' EXACT", 0},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(t *testing.T) {
				sql := fmt.Sprintf("%s PARALLEL %d", tc.sql, p)
				opts := testOptions()
				if tc.maxRows > 0 {
					opts = append(opts, fastframe.WithMaxRows(tc.maxRows))
				}
				want, err := eng.Query(context.Background(), sql, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if tc.maxRows > 0 && (want.Stopped || want.Exhausted) {
					t.Fatalf("aborted case terminated by %+v; lower maxRows", want)
				}

				// One-shot over the wire.
				resp, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: sql, MaxRows: tc.maxRows})
				if errb != nil {
					t.Fatal(errb)
				}
				got := resp.Result
				if !reflect.DeepEqual(zeroDuration(got), zeroDuration(want)) {
					t.Errorf("one-shot wire result differs:\n got %+v\nwant %+v", got, want)
				}
				if !bytes.Equal(mustJSON(t, zeroDuration(got)), mustJSON(t, zeroDuration(want))) {
					t.Error("one-shot wire result not byte-identical")
				}

				// Streamed over the wire: the terminal line must carry the
				// same Result, and the rounds must count up.
				progress, terminal, errb := wireStream(t, ts.URL, "", QueryRequest{SQL: sql, MaxRows: tc.maxRows})
				if errb != nil {
					t.Fatal(errb)
				}
				if terminal.Result == nil {
					t.Fatalf("terminal line carries no result: %+v", terminal)
				}
				if !bytes.Equal(mustJSON(t, zeroDuration(terminal.Result)), mustJSON(t, zeroDuration(want))) {
					t.Errorf("streamed wire result differs:\n got %+v\nwant %+v", terminal.Result, want)
				}
				if terminal.Accounting == nil || terminal.Accounting.Tenant != "anonymous" {
					t.Errorf("terminal accounting = %+v", terminal.Accounting)
				}
				for i, p := range progress {
					if p.Round != i+1 {
						t.Errorf("progress[%d].Round = %d", i, p.Round)
					}
				}
				if len(progress) != want.Rounds {
					t.Errorf("streamed %d rounds, result reports %d", len(progress), want.Rounds)
				}
			})
		}
	}
}

// TestWireExact checks the exact evaluation path end to end.
func TestWireExact(t *testing.T) {
	_, ts, eng := newTestServer(t, Config{})
	sql := "SELECT AVG(DepDelay) FROM flights GROUP BY Airline"
	want, err := eng.QueryExact(context.Background(), sql, testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	resp, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: sql, Exact: true})
	if errb != nil {
		t.Fatal(errb)
	}
	if resp.Exact == nil {
		t.Fatal("no exact result in response")
	}
	got := resp.Exact
	got.Duration, want.Duration = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exact wire result differs:\n got %+v\nwant %+v", got, want)
	}
	if resp.Accounting.DeltaCharged != 0 {
		t.Errorf("exact answer charged δ %g, want 0", resp.Accounting.DeltaCharged)
	}
}

// TestWireParams checks '?' binding over the wire, including an
// integral JSON number reaching an integer-only slot (LIMIT), whether it
// is written 2, 2.0 or 2e0.
func TestWireParams(t *testing.T) {
	_, ts, eng := newTestServer(t, Config{})
	sql := "SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline ORDER BY AVG(DepDelay) DESC LIMIT ?"
	stmt, err := eng.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := stmt.Bind("ORD", 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bound.Query(context.Background(), testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	resp, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: sql, Args: []any{"ORD", 2}})
	if errb != nil {
		t.Fatal(errb)
	}
	if got := resp.Result; !reflect.DeepEqual(zeroDuration(got), zeroDuration(want)) {
		t.Errorf("parameterized wire result differs:\n got %+v\nwant %+v", got, want)
	}
	// A client that writes every number as a float (Python's json, for
	// one) sends the same LIMIT as 2.0 or 2e0. json.Marshal would print 2,
	// so the bodies are written out.
	for _, limit := range []string{"2.0", "2e0"} {
		body := json.RawMessage(fmt.Sprintf(`{"sql": %q, "args": ["ORD", %s]}`, sql, limit))
		resp, errb := wireQuery(t, ts.URL, "", body)
		if errb != nil {
			t.Fatalf("LIMIT %s: %v", limit, errb)
		}
		if !reflect.DeepEqual(zeroDuration(resp.Result), zeroDuration(want)) {
			t.Errorf("LIMIT %s: wire result differs:\n got %+v\nwant %+v", limit, resp.Result, want)
		}
	}

	// A fractional number must still be rejected by an integer slot.
	if _, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: sql, Args: []any{"ORD", 2.5}}); errb == nil {
		t.Error("fractional LIMIT accepted")
	} else if errb.Code != "sql_error" {
		t.Errorf("fractional LIMIT code = %q", errb.Code)
	}
}

func TestDecodeArgs(t *testing.T) {
	got, err := DecodeArgs([]any{
		"s", json.Number("3"), json.Number("2.5"), float64(4), float64(4.5),
		json.Number("5.0"), json.Number("1e3"), json.Number("-2.0"), json.Number("1e-3"), json.Number("2.5e0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"s", int64(3), 2.5, int64(4), 4.5, int64(5), int64(1000), int64(-2), 0.001, 2.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DecodeArgs = %#v, want %#v", got, want)
	}
	for _, bad := range [][]any{{true}, {nil}, {[]any{}}} {
		if _, err := DecodeArgs(bad); err == nil {
			t.Errorf("DecodeArgs(%v) accepted", bad)
		}
	}
}

// FuzzQueryRequest: whatever bytes a client posts, decoded as
// admitRequest decodes them (UseNumber), DecodeArgs never panics, and
// what it accepts binds as written: strings unchanged, and a number
// either as an int64 equal to its value or as a finite float64 that an
// integer slot must refuse (non-integral, or |f| ≥ 2⁵³, where float64
// no longer holds every integer). A number's value is the integer it
// writes when it is an int64 literal, else the float64 nearest to it.
func FuzzQueryRequest(f *testing.F) {
	f.Add([]byte(`{"sql": "SELECT AVG(DepDelay) FROM flights LIMIT ?", "args": ["s", 3, 2.5, 4, 4.5, 5.0, 1e3, -2.0, 1e-3, 2.5e0]}`))
	for _, bad := range []string{`[true]`, `[null]`, `[[]]`, `[1e400]`} {
		f.Add([]byte(`{"sql": "x", "args": ` + bad + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req QueryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		if dec.Decode(&req) != nil {
			return
		}
		out, err := DecodeArgs(req.Args)
		if err != nil {
			return
		}
		if len(out) != len(req.Args) {
			t.Fatalf("DecodeArgs(%v) = %d args", req.Args, len(out))
		}
		for i, a := range req.Args {
			switch v := a.(type) {
			case string:
				if out[i] != v {
					t.Fatalf("arg %d: string %q became %#v", i+1, v, out[i])
				}
			case json.Number:
				checkDecodedNumber(t, v, out[i])
			default:
				t.Fatalf("arg %d: accepted %T %v", i+1, a, a)
			}
		}
	})
}

func checkDecodedNumber(t *testing.T, n json.Number, got any) {
	t.Helper()
	f, ferr := n.Float64()
	switch g := got.(type) {
	case int64:
		if i, err := n.Int64(); err == nil {
			if g != i {
				t.Fatalf("%s became int64 %d", n, g)
			}
		} else if ferr != nil || float64(g) != f {
			t.Fatalf("%s became int64 %d", n, g)
		}
	case float64:
		if ferr != nil || g != f || math.IsInf(g, 0) || math.IsNaN(g) ||
			(g == math.Trunc(g) && math.Abs(g) < 1<<53) {
			t.Fatalf("%s became float64 %v", n, g)
		}
	default:
		t.Fatalf("%s became %T", n, got)
	}
}

// TestExplainAndHealthz covers the two GET endpoints.
func TestExplainAndHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta"}},
	})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/explain?sql=SELECT+AVG(DepDelay)+FROM+flights+WITHIN+5%25", nil)
	req.Header.Set("Authorization", "Bearer ta")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("explain status %d: %s", resp.StatusCode, body)
	}
	var ex ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Plan, "AVG") {
		t.Errorf("plan = %q", ex.Plan)
	}

	// Explain requires auth...
	resp2, err := http.Get(ts.URL + "/v1/explain?sql=x")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated explain status = %d", resp2.StatusCode)
	}
	// ...healthz does not.
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp3.StatusCode)
	}
	var hz struct {
		Status string   `json:"status"`
		Tables []string `json:"tables"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || len(hz.Tables) != 1 || hz.Tables[0] != "flights" {
		t.Errorf("healthz = %+v", hz)
	}
}

func TestAuth(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta"}},
	})
	q := QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}

	if _, errb := wireQuery(t, ts.URL, "", q); errb == nil || errb.Code != "unauthorized" {
		t.Errorf("missing token: %+v", errb)
	}
	if _, errb := wireQuery(t, ts.URL, "wrong", q); errb == nil || errb.Code != "unauthorized" {
		t.Errorf("wrong token: %+v", errb)
	}
	if _, errb := wireQuery(t, ts.URL, "ta", q); errb != nil {
		t.Errorf("valid token rejected: %+v", errb)
	}
}

// syncBuffer is a goroutine-safe usage-log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestAccountingAndStats checks the async accounter end to end: usage
// records land in the JSONL log in batches off the query path, and
// /v1/stats serves the merged counters.
func TestAccountingAndStats(t *testing.T) {
	var log syncBuffer
	srv, ts, _ := newTestServer(t, Config{
		Tenants:  []TenantConfig{{Name: "a", Token: "ta"}},
		UsageLog: &log,
	})
	// statsAfter polls /v1/stats until the async batches hold the given
	// numbers of one-shot and streamed queries.
	statsAfter := func(queries, streams int) Stats {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			var st Stats
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
			req.Header.Set("Authorization", "Bearer ta")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Usage.Queries == queries && st.Usage.Streams == streams {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("stats never converged: %+v", st.Usage)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	if _, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 30%"}); errb != nil {
		t.Fatal(errb)
	}
	// A one-shot query takes looks but streams none.
	st := statsAfter(1, 0)
	if st.Usage.RoundsStreamed != 0 || len(st.Tenants) != 1 || st.Tenants[0].RoundsStreamed != 0 {
		t.Errorf("rounds_streamed after a one-shot query: usage %+v, tenants %+v", st.Usage, st.Tenants)
	}

	if _, terminal, errb := wireStream(t, ts.URL, "ta", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 30%"}); errb != nil {
		t.Fatal(errb)
	} else if terminal.Result == nil {
		t.Fatal("no terminal result")
	}
	st = statsAfter(1, 1)
	if st.Usage.RowsScanned <= 0 || st.Usage.RoundsStreamed <= 0 {
		t.Errorf("usage = %+v", st.Usage)
	}
	if len(st.Tenants) == 1 && st.Tenants[0].RoundsStreamed != st.Usage.RoundsStreamed {
		t.Errorf("tenant rounds_streamed %d, global %d", st.Tenants[0].RoundsStreamed, st.Usage.RoundsStreamed)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Name != "a" || st.Tenants[0].Queries != 2 {
		t.Errorf("tenants = %+v", st.Tenants)
	}
	if st.Tenants[0].DeltaSpent <= 0 {
		t.Errorf("delta_spent = %g, want > 0", st.Tenants[0].DeltaSpent)
	}
	if len(st.Tables) != 1 || st.Tables[0] != "flights" {
		t.Errorf("tables = %v", st.Tables)
	}

	// Shutdown flushes the remaining batches to the JSONL log.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var recs []UsageRecord
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec UsageRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad usage line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("usage log has %d records, want 2", len(recs))
	}
	if recs[0].Kind != "query" || recs[1].Kind != "stream" || !recs[0].OK || !recs[1].OK {
		t.Errorf("records = %+v", recs)
	}
	if recs[0].Tenant != "a" || recs[0].Delta <= 0 || recs[1].Rounds <= 0 {
		t.Errorf("records = %+v", recs)
	}
}

// TestMultiAggregateWire: a multi-aggregate SELECT list round-trips
// through /v1/query (approximate and exact) and /v1/stream, carrying
// the aggregate list and per-aggregate answers on every payload.
func TestMultiAggregateWire(t *testing.T) {
	_, ts, eng := newTestServer(t, Config{})
	const q = "SELECT AVG(DepDelay), MEDIAN(DepDelay), VAR(DepDelay), COUNT(DISTINCT Origin) FROM flights GROUP BY Airline"
	wantAggs := []fastframe.Agg{fastframe.AggAvg, fastframe.AggMedian, fastframe.AggVar, fastframe.AggCountDistinct}

	out, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: q})
	if errb != nil {
		t.Fatal(errb)
	}
	if !reflect.DeepEqual(out.Result.Aggs, wantAggs) {
		t.Fatalf("wire Aggs = %v", out.Result.Aggs)
	}
	for _, g := range out.Result.Groups {
		if len(g.Answers) != len(wantAggs) {
			t.Fatalf("group %q carries %d answers", g.Key, len(g.Answers))
		}
	}
	// The wire result reconstructs the engine's in-process answer.
	back := out.Result
	ref, err := eng.Query(context.Background(), q, testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	back.Duration, ref.Duration = 0, 0
	if !reflect.DeepEqual(back, ref) {
		t.Error("wire round-trip differs from in-process result")
	}

	// Exact mode carries the per-aggregate Stats.
	exOut, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: q, Exact: true})
	if errb != nil {
		t.Fatal(errb)
	}
	if !reflect.DeepEqual(exOut.Exact.Aggs, wantAggs) {
		t.Fatalf("exact wire Aggs = %v", exOut.Exact.Aggs)
	}
	for _, g := range exOut.Exact.Groups {
		if len(g.Stats) != len(wantAggs) {
			t.Fatalf("exact group %q carries %d stats", g.Key, len(g.Stats))
		}
	}

	// Streaming: every per-round line lists the aggregates and aligned
	// answers; the terminal result matches the one-shot payload.
	progress, terminal, errb := wireStream(t, ts.URL, "", QueryRequest{SQL: q})
	if errb != nil {
		t.Fatal(errb)
	}
	if len(progress) == 0 {
		t.Fatal("no progress lines")
	}
	for _, p := range progress {
		if !reflect.DeepEqual(p.Aggs, wantAggs) {
			t.Fatalf("progress Aggs = %v", p.Aggs)
		}
		for _, g := range p.Groups {
			if len(g.Answers) != len(wantAggs) {
				t.Fatalf("progress group %q carries %d answers", g.Key, len(g.Answers))
			}
		}
	}
	if terminal.Result == nil {
		t.Fatal("stream ended without a result line")
	}
	if !reflect.DeepEqual(terminal.Result.Aggs, wantAggs) {
		t.Fatalf("terminal Aggs = %v", terminal.Result.Aggs)
	}
}

// TestWireRoundTripEveryKind: a Result, Progress and ExactResult naming
// every aggregate kind survive JSON unchanged, aggregates spelled as in
// SQL, so a kind missing from the name table fails here rather than in a
// request; an unknown name is refused on decode.
func TestWireRoundTripEveryKind(t *testing.T) {
	var aggs []fastframe.Agg
	var names []string
	g := fastframe.GroupResult{Key: "k", Samples: 3}
	eg := fastframe.ExactGroup{Key: "k", Count: 3}
	for k := query.AggKind(0); k < query.NumAggKinds; k++ {
		aggs = append(aggs, fastframe.Agg(k))
		names = append(names, k.String())
		g.Answers = append(g.Answers, fastframe.Interval{Lo: float64(k) - 0.1, Hi: float64(k) + 0.1, Estimate: float64(k)})
		eg.Stats = append(eg.Stats, float64(k))
	}
	wantAggs := `"aggs":` + string(mustJSON(t, names))
	roundTrip := func(in, out any) {
		t.Helper()
		raw := mustJSON(t, in)
		if !bytes.Contains(raw, []byte(wantAggs)) {
			t.Errorf("%T encodes its aggregates other than as %s: %s", in, wantAggs, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%T round-trip:\n got %+v\nwant %+v", in, out, in)
		}
	}
	roundTrip(&fastframe.Result{Aggs: aggs, AggIndex: len(aggs) - 1, Groups: []fastframe.GroupResult{g}, Rounds: 2, Stopped: true,
		Degraded: true, QuarantinedBlocks: 4, Duration: 1234567}, &fastframe.Result{})
	roundTrip(&fastframe.Progress{Aggs: aggs, Round: 1, Groups: []fastframe.GroupResult{g}}, &fastframe.Progress{})
	roundTrip(&fastframe.ExactResult{Aggs: aggs, Groups: []fastframe.ExactGroup{eg}, Duration: 89}, &fastframe.ExactResult{})

	var res fastframe.Result
	if err := json.Unmarshal([]byte(`{"aggs": ["AVG", "MODE"]}`), &res); err == nil {
		t.Error("unknown aggregate name accepted")
	}
}
