package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fastframe"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// statusOf maps a structured error code to its HTTP status.
func statusOf(code string) int {
	switch code {
	case "unauthorized":
		return http.StatusUnauthorized
	case "rate_limited", "budget_exhausted", "concurrency_exceeded":
		return http.StatusTooManyRequests
	case "shutting_down":
		return http.StatusServiceUnavailable
	case "bad_request", "sql_error":
		return http.StatusBadRequest
	case "storage_error":
		// The data under the query is damaged; retrying the same request
		// cannot help, but it is the server's fault, not the client's.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, e *ErrorBody) {
	if e.RetryAfterSeconds > 0 {
		// Standard header form of the JSON field, for clients and
		// proxies that implement backoff generically.
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	writeJSON(w, statusOf(e.Code), ErrorResponse{Error: *e})
}

// admitRequest runs the shared front half of the query endpoints:
// drain check, authentication, body decoding and tenant admission. On
// success the caller owns the release callback (call exactly once).
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request) (t *tenant, req *QueryRequest, release func(bool), ok bool) {
	if s.draining.Load() {
		writeError(w, &ErrorBody{Code: "shutting_down", Message: "server is shutting down"})
		return nil, nil, nil, false
	}
	t, errb := s.tenants.authenticate(r.Header.Get("Authorization"))
	if errb != nil {
		writeError(w, errb)
		return nil, nil, nil, false
	}
	req = &QueryRequest{}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	dec.UseNumber() // integral args must reach integer slots (LIMIT) as ints
	if err := dec.Decode(req); err != nil {
		writeError(w, &ErrorBody{Code: "bad_request", Message: "decoding request body: " + err.Error(), Tenant: t.cfg.Name})
		return nil, nil, nil, false
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, &ErrorBody{Code: "bad_request", Message: `missing "sql"`, Tenant: t.cfg.Name})
		return nil, nil, nil, false
	}
	release, errb = t.admit(s.queryDelta(t), req.Exact)
	if errb != nil {
		writeError(w, errb)
		return nil, nil, nil, false
	}
	return t, req, release, true
}

// bind compiles the request's SQL through the engine's plan cache and
// binds its arguments.
func (s *Server) bind(req *QueryRequest) (*fastframe.BoundStmt, *ErrorBody) {
	stmt, err := s.eng.Prepare(req.SQL)
	if err != nil {
		return nil, &ErrorBody{Code: "sql_error", Message: err.Error()}
	}
	args, err := DecodeArgs(req.Args)
	if err != nil {
		return nil, &ErrorBody{Code: "bad_request", Message: err.Error()}
	}
	bound, err := stmt.Bind(args...)
	if err != nil {
		return nil, &ErrorBody{Code: "sql_error", Message: err.Error()}
	}
	return bound, nil
}

// accounting snapshots the tenant's budget line for a response that
// charged delta.
func (s *Server) accounting(t *tenant, delta float64) Accounting {
	return Accounting{
		Tenant:       t.cfg.Name,
		DeltaCharged: delta,
		DeltaSpent:   t.deltaSpent(),
		DeltaBudget:  t.cfg.DeltaBudget,
	}
}

// handleQuery is POST /v1/query: one-shot JSON in, JSON out.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, req, release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	start := time.Now()
	produced := false
	defer func() { release(produced) }()

	bound, errb := s.bind(req)
	if errb != nil {
		errb.Tenant = t.cfg.Name
		writeError(w, errb)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	opts := s.queryOptions(t, req)

	kind := "query"
	var resp QueryResponse
	var rec UsageRecord
	if req.Exact {
		kind = "exact"
		res, err := bound.QueryExact(ctx, opts...)
		if err != nil {
			s.finishError(w, t, kind, req.SQL, start, err)
			return
		}
		produced = true
		resp.Exact = res
	} else {
		res, err := bound.Query(ctx, opts...)
		if err != nil {
			s.finishError(w, t, kind, req.SQL, start, err)
			return
		}
		produced = true
		resp.Result = res
		rec = UsageRecord{Rounds: res.Rounds, Rows: res.RowsCovered, Blocks: res.BlocksFetched, Aborted: res.Aborted}
	}
	delta := 0.0
	if !req.Exact {
		delta = s.queryDelta(t)
	}
	release(produced) // charge before reporting the budget line
	resp.Accounting = s.accounting(t, delta)
	writeJSON(w, http.StatusOK, resp)

	rec.Time, rec.Tenant, rec.Kind, rec.SQL, rec.OK = start.UTC(), t.cfg.Name, kind, req.SQL, true
	rec.Delta, rec.MS = delta, time.Since(start).Seconds()*1e3
	s.acct.record(rec)
}

// errorCode classifies a failed run's error for the structured body:
// storage faults (a *blockstore.BlockError anywhere in the chain, i.e.
// a quarantined or unreadable block) are storage_error; cancellation
// before any round completed is shutting_down when the server is
// draining (Shutdown cancelled it, e.g. an exact run, which has no
// partial answer) and bad_request otherwise; everything else is the
// statement's own fault.
func errorCode(err error, draining bool) string {
	if _, _, _, _, ok := fastframe.StorageFault(err); ok {
		return "storage_error"
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if draining {
			return "shutting_down"
		}
		return "bad_request"
	}
	return "sql_error"
}

// finishError reports a run that produced no result: nothing is
// charged (the deferred release refunds the reservation).
func (s *Server) finishError(w http.ResponseWriter, t *tenant, kind, sql string, start time.Time, err error) {
	writeError(w, &ErrorBody{Code: errorCode(err, s.draining.Load()), Message: err.Error(), Tenant: t.cfg.Name})
	s.acct.record(UsageRecord{
		Time: start.UTC(), Tenant: t.cfg.Name, Kind: kind, SQL: sql,
		OK: false, Error: err.Error(), MS: time.Since(start).Seconds() * 1e3,
	})
}

// lineWriter renders stream lines as NDJSON or SSE. The mutex
// serializes the handler's event lines with the keepalive goroutine's
// comment lines — http.ResponseWriter is not safe for concurrent Write.
type lineWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	flush func()
	sse   bool
}

func newLineWriter(w http.ResponseWriter, r *http.Request) *lineWriter {
	lw := &lineWriter{w: w, flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		lw.flush = f.Flush
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		lw.sse = true
		w.Header().Set("Content-Type", "text/event-stream")
		// Tell buffering reverse proxies (nginx & friends) to pass SSE
		// frames through as they are flushed, not on buffer fill.
		w.Header().Set("X-Accel-Buffering", "no")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	return lw
}

// write emits one stream line and flushes it to the client. event
// names the SSE event (progress | result | error); NDJSON ignores it.
func (lw *lineWriter) write(event string, line StreamLine) error {
	payload, err := json.Marshal(line)
	if err != nil {
		return err
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.sse {
		_, err = fmt.Fprintf(lw.w, "event: %s\ndata: %s\n\n", event, payload)
	} else {
		_, err = fmt.Fprintf(lw.w, "%s\n", payload)
	}
	lw.flush()
	return err
}

// comment emits an SSE comment line (": <text>") — invisible to
// EventSource consumers, but enough traffic to hold idle-timeout
// middleboxes open between slow rounds. No-op for NDJSON, where every
// emitted line must parse as JSON.
func (lw *lineWriter) comment(text string) {
	if !lw.sse {
		return
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	fmt.Fprintf(lw.w, ": %s\n\n", text)
	lw.flush()
}

// keepAlive writes ": keepalive" comments every interval until stop is
// closed; the returned function signals stop and waits for the writer
// goroutine to exit (the ResponseWriter is invalid once the handler
// returns, so the handler must not outrun it). SSE only.
func (lw *lineWriter) keepAlive(interval time.Duration) (stop func()) {
	if !lw.sse || interval <= 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				lw.comment("keepalive")
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// handleStream is POST /v1/stream: the online-aggregation wire. One
// line per interval-recomputation round — the Rows cursor's Progress
// snapshots mapped onto NDJSON (or SSE when the client accepts
// text/event-stream) — then the terminal result line. The scan is
// consumer-paced end to end: the cursor hand-off is unbuffered and
// every line is flushed before the next round is pulled. A client
// disconnect cancels the request context, which aborts the scan at the
// next round boundary and releases the tenant's concurrency slot; a
// server Shutdown does the same, so the terminal line always carries a
// valid partial interval (Aborted set), never a truncated result.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t, req, release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	start := time.Now()
	produced := false
	defer func() { release(produced) }()

	if req.Exact {
		writeError(w, &ErrorBody{Code: "bad_request", Message: "exact evaluation has no per-round stream; use /v1/query", Tenant: t.cfg.Name})
		return
	}
	bound, errb := s.bind(req)
	if errb != nil {
		errb.Tenant = t.cfg.Name
		writeError(w, errb)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()

	rows, err := bound.Stream(ctx, s.queryOptions(t, req)...)
	if err != nil {
		s.finishError(w, t, "stream", req.SQL, start, err)
		return
	}
	defer rows.Close()

	lw := newLineWriter(w, r)
	w.WriteHeader(http.StatusOK)
	stopKeepAlive := lw.keepAlive(s.cfg.StreamKeepAlive)
	defer stopKeepAlive()
	rounds := 0
	for rows.Next() {
		snap := rows.Snapshot()
		if lw.write("progress", StreamLine{Progress: &snap}) != nil {
			break // client gone; ctx cancellation aborts the scan too
		}
		rounds++
	}
	res, err := rows.Final()
	rec := UsageRecord{
		Time: start.UTC(), Tenant: t.cfg.Name, Kind: "stream", SQL: req.SQL,
		Rounds: rounds, MS: time.Since(start).Seconds() * 1e3,
	}
	if err != nil {
		lw.write("error", StreamLine{Error: &ErrorBody{Code: errorCode(err, s.draining.Load()), Message: err.Error(), Tenant: t.cfg.Name}})
		rec.OK, rec.Error = false, err.Error()
		s.acct.record(rec)
		return
	}
	produced = true
	delta := s.queryDelta(t)
	release(produced)
	acct := s.accounting(t, delta)
	lw.write("result", StreamLine{Result: res, Accounting: &acct})
	rec.OK, rec.Delta = true, delta
	rec.Rows, rec.Blocks, rec.Aborted = res.RowsCovered, res.BlocksFetched, res.Aborted
	s.acct.record(rec)
}

// handleExplain is GET /v1/explain?sql=...: the logical plan (and, for
// parameterless joins, the bind-time key-set compilation) without
// running anything.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	_, errb := s.tenants.authenticate(r.Header.Get("Authorization"))
	if errb != nil {
		writeError(w, errb)
		return
	}
	sqlText := r.URL.Query().Get("sql")
	if strings.TrimSpace(sqlText) == "" {
		writeError(w, &ErrorBody{Code: "bad_request", Message: `missing "sql" query parameter`})
		return
	}
	plan, err := s.eng.Explain(sqlText)
	if err != nil {
		writeError(w, &ErrorBody{Code: "sql_error", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{SQL: sqlText, Plan: plan})
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	_, errb := s.tenants.authenticate(r.Header.Get("Authorization"))
	if errb != nil {
		writeError(w, errb)
		return
	}
	writeJSON(w, http.StatusOK, s.stats())
}

// handleHealthz is GET /healthz — unauthenticated liveness and storage
// health. Status is "ok", "degraded" (some table's storage breaker is
// open — quarantined blocks or a recent fault burst; degraded_tables
// lists them) or "draining" (shutdown in progress, which outranks
// degradation). Always 200: the process is alive either way, and
// orchestrators should read the status string, not the HTTP code.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	degraded := s.degradedTables()
	if len(degraded) > 0 {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
	}
	body := map[string]any{
		"status": status,
		"tables": s.eng.Tables(),
	}
	if len(degraded) > 0 {
		body["degraded_tables"] = degraded
	}
	writeJSON(w, http.StatusOK, body)
}
