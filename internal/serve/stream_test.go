package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastframe"
)

// neverSQL converges only after exhausting the scramble: tiny absolute
// width, so with small rounds the scan runs for ~150 rounds.
const neverSQL = "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN ABS 0.000001"

func longStreamOptions() []fastframe.Option {
	return []fastframe.Option{fastframe.WithSeed(7), fastframe.WithRoundRows(200)}
}

// startStream opens /v1/stream over the wire under ctx and returns a
// line scanner over the NDJSON body.
func startStream(t *testing.T, ctx context.Context, base, token, sql string) (*bufio.Scanner, func()) {
	t.Helper()
	payload, err := json.Marshal(QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/stream", bytes.NewReader(payload))
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
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	return sc, func() { resp.Body.Close() }
}

// readLine decodes the scanner's next NDJSON line.
func readLine(t *testing.T, sc *bufio.Scanner) (StreamLine, bool) {
	t.Helper()
	if !sc.Scan() {
		return StreamLine{}, false
	}
	var line StreamLine
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatalf("bad stream line %q: %v", sc.Text(), err)
	}
	return line, true
}

// blockingWriter is a ResponseWriter whose Write blocks until the test
// receives the bytes. TCP buffers absorb small writes, so a wire-level
// client cannot hold a fast scan mid-flight; this writer extends the
// cursor's consumer pacing all the way to the test, pinning the scan
// at a round barrier of the test's choosing.
type blockingWriter struct {
	header http.Header
	status int
	lines  chan []byte
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{header: make(http.Header), lines: make(chan []byte)}
}

func (w *blockingWriter) Header() http.Header  { return w.header }
func (w *blockingWriter) WriteHeader(code int) { w.status = code }
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.lines <- append([]byte(nil), p...)
	return len(p), nil
}

// blockedStream runs /v1/stream in-process against a blockingWriter:
// the handler (and through it the scan) makes progress only as the
// test reads lines. done closes when the handler returns.
func blockedStream(srv *Server, ctx context.Context, token, sql string) (w *blockingWriter, done chan struct{}) {
	payload, _ := json.Marshal(QueryRequest{SQL: sql})
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", bytes.NewReader(payload))
	req = req.WithContext(ctx)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w, done = newBlockingWriter(), make(chan struct{})
	go func() {
		srv.ServeHTTP(w, req)
		close(done)
	}()
	return w, done
}

// readBlocked decodes the next line from a blocked stream.
func readBlocked(t *testing.T, w *blockingWriter, done chan struct{}) (StreamLine, bool) {
	t.Helper()
	select {
	case raw := <-w.lines:
		var line StreamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		return line, true
	case <-done:
		return StreamLine{}, false
	case <-time.After(10 * time.Second):
		t.Fatal("stream produced no line")
		return StreamLine{}, false
	}
}

// drainBlocked reads a blocked stream to completion and returns its
// terminal line.
func drainBlocked(t *testing.T, w *blockingWriter, done chan struct{}) StreamLine {
	t.Helper()
	var last StreamLine
	for {
		line, ok := readBlocked(t, w, done)
		if !ok {
			if last.Result == nil && last.Error == nil {
				t.Fatal("stream ended without a terminal line")
			}
			return last
		}
		last = line
	}
}

// TestStreamClientDisconnect is the cursor-leak regression test over
// the real wire: a client that walks away mid-stream must not leak the
// scan goroutine or the tenant's concurrency slot. With a cap of 1, a
// leaked slot would lock the tenant out permanently.
func TestStreamClientDisconnect(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta", MaxConcurrent: 1}},
		Options: longStreamOptions(),
	})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	sc, closeBody := startStream(t, ctx, ts.URL, "ta", neverSQL)
	for i := 0; i < 3; i++ {
		line, ok := readLine(t, sc)
		if !ok || line.Progress == nil {
			t.Fatalf("round %d: expected a progress line, got %+v", i, line)
		}
	}
	cancel() // client walks away mid-stream
	closeBody()

	// The handler releases the slot on its way out.
	ten := srv.tenants.byName["a"]
	deadline := time.Now().Add(5 * time.Second)
	for ten.usage().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tenant slot still held %+v", ten.usage())
		}
		time.Sleep(5 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The tenant (cap 1) can immediately query again: the slot came back.
	if _, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}); errb != nil {
		t.Fatalf("query after disconnect rejected: %+v", errb)
	}
}

// TestStreamDisconnectMidScan pins the scan at a round barrier with a
// blocking writer, then cancels the request context — exactly what a
// dropped connection does to r.Context(). The scan must abort at the
// next round boundary, the terminal line must carry a valid partial
// interval, and the slot must come back.
func TestStreamDisconnectMidScan(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Tenants: []TenantConfig{{Name: "a", Token: "ta", MaxConcurrent: 1}},
		Options: longStreamOptions(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	w, done := blockedStream(srv, ctx, "ta", neverSQL)
	for i := 0; i < 3; i++ {
		line, ok := readBlocked(t, w, done)
		if !ok || line.Progress == nil {
			t.Fatalf("round %d: expected a progress line, got %+v", i, line)
		}
	}
	cancel() // the connection drops with the scan pinned mid-flight

	terminal := drainBlocked(t, w, done)
	if terminal.Error != nil {
		t.Fatalf("terminal line is an error: %v", terminal.Error)
	}
	res := terminal.Result
	if !res.Aborted || res.Exhausted {
		t.Errorf("terminal result flags = aborted %v exhausted %v, want a mid-scan abort", res.Aborted, res.Exhausted)
	}
	if res.RowsCovered <= 0 || res.RowsCovered >= 30_000 {
		t.Errorf("rows covered = %d, want a genuine partial scan", res.RowsCovered)
	}
	for _, g := range res.Groups {
		if !(g.Answers[0].Lo <= g.Answers[0].Estimate && g.Answers[0].Estimate <= g.Answers[0].Hi) {
			t.Errorf("group %q: invalid partial interval [%g, %g] est %g", g.Key, g.Answers[0].Lo, g.Answers[0].Hi, g.Answers[0].Estimate)
		}
	}
	if got := srv.tenants.byName["a"].usage().InFlight; got != 0 {
		t.Errorf("in-flight after disconnect = %d", got)
	}
	if _, errb := wireQuery(t, ts.URL, "ta", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}); errb != nil {
		t.Fatalf("query after disconnect rejected: %+v", errb)
	}
}

// TestStreamShutdownMidQuery checks the graceful-shutdown guarantee:
// SIGTERM (Server.Shutdown) mid-stream still ends the response with a
// terminal line carrying a VALID partial interval — Aborted set, CIs
// intact — and subsequent queries get 503 shutting_down.
func TestStreamShutdownMidQuery(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{Options: longStreamOptions()})

	w, done := blockedStream(srv, context.Background(), "", neverSQL)
	for i := 0; i < 2; i++ {
		if line, ok := readBlocked(t, w, done); !ok || line.Progress == nil {
			t.Fatalf("round %d: expected a progress line, got %+v", i, line)
		}
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Keep draining: the stream must end with a terminal result line.
	terminal := drainBlocked(t, w, done)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if terminal.Error != nil {
		t.Fatalf("terminal line is an error: %v", terminal.Error)
	}
	res := terminal.Result
	if !res.Aborted {
		t.Errorf("terminal result not marked aborted: %+v", res)
	}
	if res.RowsCovered <= 0 || res.RowsCovered >= 30_000 {
		t.Errorf("rows covered = %d, want a genuine partial scan", res.RowsCovered)
	}
	if len(res.Groups) == 0 {
		t.Error("aborted result has no groups")
	}
	for _, g := range res.Groups {
		if !(g.Answers[0].Lo <= g.Answers[0].Estimate && g.Answers[0].Estimate <= g.Answers[0].Hi) {
			t.Errorf("group %q: invalid partial interval [%g, %g] est %g", g.Key, g.Answers[0].Lo, g.Answers[0].Hi, g.Answers[0].Estimate)
		}
	}
	if terminal.Accounting == nil {
		t.Error("aborted terminal line carries no accounting")
	}

	// After shutdown the server stops admitting.
	if _, errb := wireQuery(t, ts.URL, "", QueryRequest{SQL: "SELECT COUNT(*) FROM flights WITHIN 50%"}); errb == nil {
		t.Error("query admitted after shutdown")
	} else if errb.Code != "shutting_down" {
		t.Errorf("post-shutdown code = %q", errb.Code)
	}

	// Healthz reports draining (and stays unauthenticated).
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", hz.Status)
	}
}

// TestStreamSSE checks the Server-Sent Events rendering of the same
// stream: event-typed frames, terminal result event last.
func TestStreamSSE(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	payload, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 20%"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []string
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("events = %v, want progress rounds plus a terminal", events)
	}
	for _, ev := range events[:len(events)-1] {
		if ev != "progress" {
			t.Errorf("event = %q, want progress", ev)
		}
	}
	if events[len(events)-1] != "result" {
		t.Errorf("terminal event = %q, want result", events[len(events)-1])
	}
	var line StreamLine
	if err := json.Unmarshal([]byte(lastData), &line); err != nil {
		t.Fatal(err)
	}
	if line.Result == nil || line.Accounting == nil {
		t.Errorf("terminal SSE data = %+v", line)
	}
}

// TestStreamSSEKeepAlive is the slow-round keepalive regression test: a
// query whose rounds take ~250 ms (a sleeping WithProgress callback in
// the server baseline) must not leave the SSE connection silent between
// events — the server pads the gaps with ": keepalive" comment lines.
// The client reads the raw TCP stream under a deadline much shorter
// than a round, so a missing keepalive fails the test the way a proxy
// idle timeout would sever the stream. NDJSON responses must stay pure
// JSON lines, never padded.
// sseResultComplete reports that the terminal "event: result" frame
// has fully arrived — the event line plus its data line's blank-line
// terminator — so the reader never stops mid-payload.
func sseResultComplete(b []byte) bool {
	i := bytes.Index(b, []byte("event: result"))
	if i < 0 {
		return false
	}
	rest := b[i:]
	return bytes.Contains(rest, []byte("\n\n")) || bytes.Contains(rest, []byte("\n\r\n"))
}

func TestStreamSSEKeepAlive(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		StreamKeepAlive: 20 * time.Millisecond,
		Options: append(longStreamOptions(),
			fastframe.WithProgress(func(fastframe.Progress) bool {
				time.Sleep(250 * time.Millisecond)
				return true
			}),
			fastframe.WithMaxRows(600), // 3 slow rounds of 200 rows
		),
	})
	payload, err := json.Marshal(QueryRequest{SQL: neverSQL})
	if err != nil {
		t.Fatal(err)
	}

	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/stream HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nAccept: text/event-stream\r\nContent-Length: %d\r\n\r\n%s",
		u.Host, len(payload), payload)

	// Each read must complete well inside a round's 250 ms gap: only
	// the 20 ms keepalive cadence can satisfy that.
	var buf bytes.Buffer
	tmp := make([]byte, 4096)
	for !sseResultComplete(buf.Bytes()) {
		conn.SetReadDeadline(time.Now().Add(125 * time.Millisecond))
		n, err := conn.Read(tmp)
		buf.Write(tmp[:n])
		if err != nil {
			t.Fatalf("read stalled mid-round (keepalives missing?): %v\nstream so far:\n%s", err, buf.String())
		}
	}
	raw := buf.String()

	if !strings.Contains(raw, "X-Accel-Buffering: no") {
		t.Error("SSE response missing X-Accel-Buffering: no")
	}
	if n := strings.Count(raw, ": keepalive"); n < 2 {
		t.Errorf("saw %d keepalive comments across ~750ms of slow rounds, want several", n)
	}
	// The comments are invisible to the event layer: every data payload
	// still parses, terminal result last.
	var events int
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		var sl StreamLine
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sl); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
	}
	if events < 2 {
		t.Errorf("parsed %d SSE data payloads, want progress rounds plus a terminal", events)
	}

	// The NDJSON rendering of the same slow stream carries no padding:
	// every line is JSON, none is a comment.
	resp := postJSON(t, ts.URL, "/v1/stream", "", QueryRequest{SQL: neverSQL})
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		lines++
		var sl StreamLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			t.Fatalf("NDJSON line %q does not parse: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Errorf("NDJSON stream produced %d lines", lines)
	}
}
