package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastframe"
	"fastframe/internal/testutil"
)

// newFaultServer mounts a Server over an out-of-core copy of the test
// table (written to a temp file, reopened through a buffer pool), so
// storage faults can be injected underneath the HTTP surface.
func newFaultServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *fastframe.Table) {
	t.Helper()
	testutil.GoroutineBaseline(t) // checked last, beside the pin-leak guard below
	tab, err := testTable()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/flights.ff"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pool := fastframe.NewBufferPool(1 << 22)
	t.Cleanup(func() { pool.Close() })
	ooc, err := fastframe.OpenTable(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	// Runs after the HTTP server below has closed, i.e. after every
	// request has returned: the pin-leak guard.
	t.Cleanup(func() {
		if n := pool.Stats().PinnedFrames; n != 0 {
			t.Errorf("%d extents still pinned after the last request returned", n)
		}
		if err := ooc.Close(); err != nil {
			t.Errorf("closing the out-of-core table: %v", err)
		}
	})

	eng := fastframe.NewEngine()
	if err := eng.Register("flights", ooc); err != nil {
		t.Fatal(err)
	}
	srv, ts := mountServer(t, eng, cfg)
	return srv, ts, ooc
}

// TestPanicRecovery drives a panicking handler through the recovery
// middleware: the client gets a structured 500, the tenant's admission
// slot is released during unwinding, and the daemon keeps serving.
func TestPanicRecovery(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "anonymous", MaxConcurrent: 1}},
	})
	// A synthetic route with the real handler prologue (admission +
	// deferred slot release) that dies mid-flight.
	srv.mux.HandleFunc("POST /v1/panictest", func(w http.ResponseWriter, r *http.Request) {
		_, _, release, ok := srv.admitRequest(w, r)
		if !ok {
			return
		}
		defer func() { release(false) }()
		panic("synthetic handler failure")
	})
	// And one that panics after the response has started: recovery must
	// not inject an error body into a half-written response.
	srv.mux.HandleFunc("GET /v1/panicpartial", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		panic("late failure")
	})

	// With a concurrency cap of 1, a leaked slot would wedge the server
	// after the first panic; three rounds prove release ran each time.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL, "/v1/panictest", "", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 10%"})
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("round %d: undecodable panic response: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || e.Error.Code != "internal" {
			t.Fatalf("round %d: status %d code %q, want 500 internal", i, resp.StatusCode, e.Error.Code)
		}
	}
	if res, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 5%"}); errb != nil || res.Result == nil {
		t.Fatalf("query after panics failed: %+v", errb)
	}

	resp, err := http.Get(ts.URL + "/v1/panicpartial")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading half-written response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != "partial" {
		t.Fatalf("late panic corrupted the response: status %d body %q", resp.StatusCode, body)
	}
	// Liveness after both panic shapes.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: %v (%v)", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestEnginePanicIsolation panics inside the engine rather than in a
// handler: a progress callback that fires on the request's goroutine
// (one-shot) and on the Rows producer's (streamed). The panic travels
// back to the request's own goroutine, the recovery above answers 500
// internal (or truncates the stream), and the server keeps serving.
func TestEnginePanicIsolation(t *testing.T) {
	var armed atomic.Bool
	opts := append(testOptions(), fastframe.WithProgress(func(fastframe.Progress) bool {
		if armed.CompareAndSwap(true, false) {
			panic("synthetic engine failure")
		}
		return true
	}))
	_, ts, _ := newTestServer(t, Config{Options: opts})
	req := QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 5%"}

	armed.Store(true)
	if _, errb := wireQuery(t, ts.URL, "", req); errb == nil || errb.Code != "internal" {
		t.Fatalf("query whose scan panicked: got %+v, want 500 internal", errb)
	}
	if res, errb := wireQuery(t, ts.URL, "", req); errb != nil || res.Result == nil {
		t.Fatalf("query after the engine panic failed: %+v", errb)
	}

	// Streamed: the 200 header is out before the scan starts, so the
	// panic can only cut the stream short — no terminal result line.
	armed.Store(true)
	resp := postJSON(t, ts.URL, "/v1/stream", "", req)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(`"result"`)) {
		t.Errorf("stream whose scan panicked: status %d, err %v, body %q; want a 200 cut short before any result line", resp.StatusCode, err, body)
	}
	if _, terminal, errb := wireStream(t, ts.URL, "", req); errb != nil || terminal.Result == nil {
		t.Fatalf("stream after the engine panic failed: %+v", errb)
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after engine panics: %v (%v)", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestBreakerClassify pins the per-table breaker's state machine on an
// injectable clock.
func TestBreakerClassify(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clock := base
	b := storageBreaker{now: func() time.Time { return clock }}

	if got := b.classify(fastframe.TableStorageStats{}); got != "ok" {
		t.Errorf("clean table: %q", got)
	}
	// A single healed hiccup stays ok.
	one := fastframe.TableStorageStats{IOErrors: 1, Retries: 1, LastFaultUnixNano: base.UnixNano()}
	if got := b.classify(one); got != "ok" {
		t.Errorf("one transient fault: %q", got)
	}
	// A burst of faults trips the breaker...
	burst := fastframe.TableStorageStats{IOErrors: breakerTripFaults, LastFaultUnixNano: base.UnixNano()}
	if got := b.classify(burst); got != "degraded" {
		t.Errorf("fault burst: %q", got)
	}
	// ...and it re-closes after the cooldown with no new faults.
	clock = base.Add(breakerCooldown + time.Second)
	if got := b.classify(burst); got != "ok" {
		t.Errorf("after cooldown: %q", got)
	}
	// Quarantined blocks read degraded regardless of age.
	q := fastframe.TableStorageStats{QuarantinedBlocks: 1, LastFaultUnixNano: base.UnixNano()}
	if got := b.classify(q); got != "degraded" {
		t.Errorf("quarantine after cooldown: %q", got)
	}
}

// TestFaultStorageErrorSurfaces injects a permanent storage fault under
// a default-mode server: the query fails with a structured
// storage_error, /v1/stats grows a storage section with the fault
// ledger and an open breaker, and /healthz reports degraded naming the
// table.
func TestFaultStorageErrorSurfaces(t *testing.T) {
	_, ts, ooc := newFaultServer(t, Config{})
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		if col == 0 {
			return errors.New("injected permanent fault")
		}
		return nil
	})

	res, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 5%"})
	if errb == nil {
		t.Fatalf("query over unreadable column returned %+v", res)
	}
	if errb.Code != "storage_error" {
		t.Fatalf("error code %q, want storage_error (%s)", errb.Code, errb.Message)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Storage) != 1 {
		t.Fatalf("storage section: %+v", st.Storage)
	}
	sg := st.Storage[0]
	if sg.Table != "flights" || sg.IOErrors == 0 || sg.Retries == 0 ||
		sg.QuarantinedBlocks == 0 || sg.BreakerState != "degraded" {
		t.Fatalf("fault ledger: %+v", sg)
	}
	if st.BufferPool.IOErrors == 0 || st.BufferPool.QuarantinedBlocks == 0 {
		t.Fatalf("pool counters missing faults: %+v", st.BufferPool)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status         string   `json:"status"`
		DegradedTables []string `json:"degraded_tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "degraded" || len(hz.DegradedTables) != 1 || hz.DegradedTables[0] != "flights" {
		t.Fatalf("healthz: %+v", hz)
	}
}

// TestDegradedReadsWire runs the opt-in path end to end: with
// Config.DegradedReads the same permanent faults produce 200 answers
// flagged degraded with the quarantined-block count, one-shot and
// streamed alike.
func TestDegradedReadsWire(t *testing.T) {
	_, ts, ooc := newFaultServer(t, Config{DegradedReads: true})
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		if col == 0 && block%2 == 1 {
			return errors.New("injected permanent fault")
		}
		return nil
	})

	// A stopping target the surviving half of the rows cannot meet
	// forces a full pass through every (quarantined) block.
	req := QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 0.01%"}
	res, errb := wireQuery(t, ts.URL, "", req)
	if errb != nil {
		t.Fatalf("degraded-mode query failed: %+v", errb)
	}
	if res.Result == nil || !res.Result.Degraded || res.Result.QuarantinedBlocks == 0 {
		t.Fatalf("degraded run not flagged: %+v", res.Result)
	}

	_, terminal, errb := wireStream(t, ts.URL, "", req)
	if errb != nil {
		t.Fatalf("degraded-mode stream failed: %+v", errb)
	}
	if terminal.Result == nil || !terminal.Result.Degraded || terminal.Result.QuarantinedBlocks == 0 {
		t.Fatalf("streamed degraded run not flagged: %+v", terminal.Result)
	}

	// Degradation also shows on /healthz even though queries succeed.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", hz.Status)
	}
}

// TestShutdownCancelsQueuedQuery: queries Shutdown cancels while they
// wait inside their first block read. An exact one has no partial
// answer to give, so its error must say the server is draining (503
// shutting_down, the code admission refusals use), not blame the
// request with 400 bad_request. Approximate ones, one-shot and
// streamed, end with a valid partial result, Aborted set.
func TestShutdownCancelsQueuedQuery(t *testing.T) {
	srv, ts, ooc := newFaultServer(t, Config{})
	// Every block read waits until release: each query below waits
	// inside its first read, before any look.
	entered, release := make(chan struct{}), make(chan struct{})
	var enteredOnce sync.Once
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		enteredOnce.Do(func() { close(entered) })
		<-release
		return nil
	})
	// post sends one request on its own goroutine; the test's goroutine
	// reads the reply.
	post := func(path string, req QueryRequest) <-chan *http.Response {
		out := make(chan *http.Response, 1)
		go func() {
			payload, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("POST %s: %v", path, err)
			}
			out <- resp
		}()
		return out
	}
	recv := func(c <-chan *http.Response) *http.Response {
		t.Helper()
		resp := <-c
		if resp == nil {
			t.FailNow()
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	holder := post("/v1/query", QueryRequest{SQL: neverSQL})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first query never read a block")
	}
	exact := post("/v1/query", QueryRequest{SQL: "SELECT SUM(DepDelay) FROM flights", Exact: true})
	streamed := post("/v1/stream", QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 50%"})
	ten := srv.tenants.byName["anonymous"]
	deadline := time.Now().Add(10 * time.Second)
	for ten.usage().InFlight != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("the queries were not admitted: %+v", ten.usage())
		}
		time.Sleep(time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	for !srv.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)

	resp := recv(exact)
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != "shutting_down" {
		t.Errorf("exact /v1/query: status %d, %v (%v), want 503 shutting_down", resp.StatusCode, &e.Error, err)
	}
	// The stream's terminal line follows the progress lines of the looks
	// it took.
	var line StreamLine
	for dec := json.NewDecoder(recv(streamed).Body); line.Result == nil && line.Error == nil; {
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("/v1/stream: %v before a terminal line", err)
		}
	}
	if line.Result == nil || !line.Result.Aborted {
		t.Errorf("/v1/stream terminal line: %+v, want an aborted result", line)
	}
	var qr QueryResponse
	if err := json.NewDecoder(recv(holder).Body).Decode(&qr); err != nil || qr.Result == nil || !qr.Result.Aborted {
		t.Errorf("the running query: %+v (%v), want an aborted result", qr, err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
