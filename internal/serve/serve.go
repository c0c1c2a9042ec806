package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fastframe"
)

// Config configures a Server.
type Config struct {
	// Tenants declares the per-token tenants. At least one is required:
	// a tenant with an empty token serves unauthenticated requests.
	Tenants []TenantConfig
	// Options are applied to every query the server runs (seed,
	// bounder, strategy, ... — a fixed seed makes answers reproducible
	// across restarts). Per-tenant δ overrides apply after these.
	Options []fastframe.Option
	// QueryTimeout bounds each query's execution; expiry aborts the
	// scan at the next round boundary, so the answer is still a valid
	// partial interval. 0 = unbounded.
	QueryTimeout time.Duration
	// DegradedReads runs every query with fastframe.WithDegradedReads():
	// scans skip permanently quarantined storage blocks instead of
	// failing, keeping intervals conservatively valid (the skipped rows
	// are charged at their catalog worst case) and marking responses
	// Degraded. Off by default — an unreadable block then fails the
	// query with a structured storage_error naming the damaged block.
	DegradedReads bool
	// StreamKeepAlive is the interval between SSE keepalive comment
	// lines (": keepalive") written while a round is in flight, so
	// proxies and idle-timeout middleboxes don't sever slow streams
	// between events. 0 = DefaultStreamKeepAlive; negative disables.
	// NDJSON streams are never padded.
	StreamKeepAlive time.Duration
	// MaxBody caps request body size in bytes (default 1 MiB).
	MaxBody int64
	// UsageLog receives one JSON line per produced result (or terminal
	// failure), written in batches off the query path. nil keeps
	// in-memory counters only.
	UsageLog io.Writer
	// FlushEvery overrides the accounter's batching interval (tests).
	FlushEvery time.Duration
	// now overrides the clock (tests drive rate limits with it).
	now func() time.Time
}

// DefaultMaxBody is the request-body cap when Config.MaxBody is 0.
const DefaultMaxBody = 1 << 20

// DefaultStreamKeepAlive is the SSE keepalive interval when
// Config.StreamKeepAlive is 0 — comfortably inside the common 30–60 s
// proxy idle timeouts.
const DefaultStreamKeepAlive = 15 * time.Second

// Server is a multi-tenant HTTP query service over one long-lived
// Engine. It implements http.Handler; mount it directly on an
// http.Server or an httptest.Server. All methods are safe for
// concurrent use.
type Server struct {
	eng     *fastframe.Engine
	cfg     Config
	mux     *http.ServeMux
	tenants *registry
	acct    *accounter

	// stopCtx is done once Shutdown begins; every in-flight query's
	// context is derived from its request AND this, so shutdown aborts
	// scans at their next round boundary.
	stopCtx  context.Context
	stop     context.CancelFunc
	draining atomic.Bool
	inflight sync.WaitGroup
	started  time.Time

	// brk classifies per-table storage health for /healthz and
	// /v1/stats from the engine's fault counters.
	brk storageBreaker
}

// New validates the configuration and returns a ready Server. The
// engine should already have its tables and dimensions registered;
// registrations made later are picked up by subsequent queries
// (Engine is safe for concurrent use).
func New(eng *fastframe.Engine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured (declare at least one, empty token = anonymous)")
	}
	reg, err := newRegistry(cfg.Tenants, cfg.now)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.StreamKeepAlive == 0 {
		cfg.StreamKeepAlive = DefaultStreamKeepAlive
	}
	if cfg.DegradedReads {
		cfg.Options = append([]fastframe.Option{fastframe.WithDegradedReads()}, cfg.Options...)
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		tenants: reg,
		acct:    newAccounter(cfg.UsageLog, cfg.FlushEvery),
		stopCtx: ctx,
		stop:    cancel,
		started: time.Now(),
		brk:     storageBreaker{now: now},
	}
	s.routes()
	return s, nil
}

// ServeHTTP dispatches to the v1 API. A panicking handler is isolated
// to its own request: the panic is recovered here, the client gets a
// structured 500 internal error (when the response header has not gone
// out yet — a mid-stream panic can only truncate), and the tenant's
// admission slot and the in-flight count are released by the handlers'
// own defers as the stack unwinds, so one poisoned request never wedges
// the server or leaks capacity.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &recoveringWriter{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			if !rw.wrote {
				writeError(rw, &ErrorBody{Code: "internal", Message: fmt.Sprintf("internal error: %v", p)})
			}
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// recoveringWriter tracks whether the response has started, so panic
// recovery knows whether a structured error body can still be written.
type recoveringWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoveringWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoveringWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

// Flush keeps the stream endpoints' flush-per-line pacing working
// through the wrapper.
func (rw *recoveringWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Shutdown gracefully stops the server: admission stops immediately
// (new queries get 503 shutting_down), every in-flight query's context
// is cancelled so its scan aborts at the next round boundary — each
// still produces, and each streamed response still ends with, a VALID
// partial interval (Aborted set; the (1−δ) guarantee degrades to the
// point reached, never silently) — then the accounter flushes its
// remaining batches to the usage log. Shutdown returns once every
// handler has written its final response or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stop()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.acct.close()
	return nil
}

// queryContext derives one query's context: the request context (done
// on client disconnect), the per-query timeout, and the server's stop
// context (done on Shutdown). Cancellation through any of the three
// aborts the scan at its next round boundary with valid partial
// intervals.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	cancelTimeout := context.CancelFunc(func() {})
	if s.cfg.QueryTimeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, s.cfg.QueryTimeout)
	}
	ctx, cancel := context.WithCancel(ctx)
	stopWatch := context.AfterFunc(s.stopCtx, cancel)
	return ctx, func() {
		stopWatch()
		cancel()
		cancelTimeout()
	}
}

// queryDelta resolves the δ one tenant's approximate query will
// consume: the tenant override, else the engine's per-query session δ.
func (s *Server) queryDelta(t *tenant) float64 {
	if t.cfg.QueryDelta > 0 {
		return t.cfg.QueryDelta
	}
	_, perQuery := s.eng.SessionBudget()
	return perQuery
}

// queryOptions assembles the options for one tenant's run: the
// server-wide baseline, then the tenant δ, then request-level ones.
func (s *Server) queryOptions(t *tenant, req *QueryRequest) []fastframe.Option {
	opts := append([]fastframe.Option(nil), s.cfg.Options...)
	if t.cfg.QueryDelta > 0 {
		opts = append(opts, fastframe.WithDelta(t.cfg.QueryDelta))
	}
	if req.MaxRows > 0 {
		opts = append(opts, fastframe.WithMaxRows(req.MaxRows))
	}
	return opts
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	UptimeSeconds float64       `json:"uptime_seconds"`
	Tables        []string      `json:"tables"`
	Dimensions    []string      `json:"dimensions,omitempty"`
	QueriesRun    int           `json:"queries_run"` // engine-wide, incl. embedded use
	SessionError  float64       `json:"session_error"`
	PlanCache     PlanCacheInfo `json:"plan_cache"`
	// SharedScan is never set and never sent: every query runs as its
	// own scan. It stays only because the frozen bench/ package reads it.
	SharedScan struct{ BlocksFetched, BlocksDemanded int64 } `json:"-"`
	// BufferPool sums the extent-cache counters over the engine's
	// distinct pools (all zero when every table is resident). Hits,
	// misses and evictions count extents — 64-block runs of one column —
	// each read by the pin of the query that needed it; pinned_frames is
	// how many of them running queries hold right now.
	BufferPool fastframe.PoolStats `json:"buffer_pool"`
	// Storage is the per-table fault ledger of the out-of-core tables —
	// counters plus the circuit breaker's verdict; omitted when every
	// table is resident.
	Storage []TableStorage `json:"storage,omitempty"`
	Usage   UsageStats     `json:"usage"`
	Tenants []TenantUsage  `json:"tenants"`
}

// PlanCacheInfo holds Engine.PlanCacheStats' three counts.
type PlanCacheInfo struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Size   int `json:"size"`
}

// UsageStats are the accounter's global counters. RoundsStreamed
// counts /v1/stream progress lines; one-shot queries add none.
type UsageStats struct {
	Queries        int   `json:"queries"`
	Streams        int   `json:"streams"`
	RoundsStreamed int   `json:"rounds_streamed"`
	RowsScanned    int64 `json:"rows_scanned"`
	BlocksFetched  int64 `json:"blocks_fetched"`
	Errors         int   `json:"errors"`
	Recorded       int   `json:"records"`
	Dropped        int   `json:"records_dropped"`
}

// stats assembles the /v1/stats snapshot: synchronous tenant state
// merged with the accounter's asynchronous counters.
func (s *Server) stats() Stats {
	hits, misses, size := s.eng.PlanCacheStats()
	global, recorded, dropped := s.acct.globalCounters()
	st := Stats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Tables:        s.eng.Tables(),
		Dimensions:    s.eng.Dimensions(),
		QueriesRun:    s.eng.QueriesRun(),
		SessionError:  s.eng.SessionError(),
		PlanCache:     PlanCacheInfo{Hits: hits, Misses: misses, Size: size},
		BufferPool:    s.eng.PoolStats(),
		Storage:       s.storage(),
		Usage: UsageStats{
			Queries:        global.Queries,
			Streams:        global.Streams,
			RoundsStreamed: global.Rounds,
			RowsScanned:    global.Rows,
			BlocksFetched:  global.Blocks,
			Errors:         global.Errors,
			Recorded:       recorded,
			Dropped:        dropped,
		},
	}
	for _, name := range s.tenants.names() {
		t := s.tenants.byName[name]
		u := t.usage()
		c := s.acct.counters(name)
		u.RoundsStreamed = c.Rounds
		u.RowsScanned = c.Rows
		u.BlocksFetched = c.Blocks
		st.Tenants = append(st.Tenants, u)
	}
	return st
}
