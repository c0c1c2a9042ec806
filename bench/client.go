package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The wire types below are the benchmark's own reading of ffserved's
// JSON: only the fields it checks, so the client stays an outside view
// of the server.
type wireInterval struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Estimate float64 `json:"estimate"`
}

type wireGroup struct {
	Key     string         `json:"key"`
	Answers []wireInterval `json:"answers"`
}

type wireResult struct {
	Aggs          []string    `json:"aggs"`
	Groups        []wireGroup `json:"groups"`
	BlocksFetched int         `json:"blocks_fetched"`
	Stopped       bool        `json:"stopped"`
}

type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type queryResponse struct {
	Result *wireResult `json:"result"`
	Error  *wireError  `json:"error"`
}

type streamLine struct {
	Progress *struct {
		Round int `json:"round"`
	} `json:"progress"`
	Result *wireResult `json:"result"`
	Error  *wireError  `json:"error"`
}

// sample is the outcome of one request.
type sample struct {
	index   int
	stream  bool
	err     error // transport error, non-2xx, error line or malformed body
	refused bool  // 429 or 503
	tts     time.Duration
	ttfi    time.Duration // stream only: send → first progress line parsed
	blocks  int
	lines   int // stream only: progress lines
	verdict verdict
	sent    time.Duration // since the run's first send
	cycle   time.Duration // send → the client is free to send its next request
	cpu     time.Duration // the server's CPU time between send and reply (end-to-end run)
	// slow is how many times slower than the reference box this box ran
	// while the request was out (end-to-end run; see speedProbe).
	slow float64
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	http  *http.Client
	url   string
	truth map[string]*truth
}

func newClient(url string, truth map[string]*truth) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr}, url: url, truth: truth}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request, reads the whole response and checks it.
func (c *client) do(ctx context.Context, rq *request) sample {
	s := sample{index: rq.index, stream: rq.stream}
	path := "/v1/query"
	if rq.stream {
		path = "/v1/stream"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(rq.body))
	if err != nil {
		s.err = err
		return s
	}
	hreq.Header.Set("Authorization", "Bearer "+tenantToken)
	hreq.Header.Set("Content-Type", "application/json")

	start := time.Now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	readResponse(rq, resp.StatusCode, resp.Body, start, &s, c.truth[rq.truthKey])
	return s
}

// readResponse reads one reply to its end, fills the sample's timings
// and checks the answer against the truth. It serves the HTTP client
// and the traced run's in-process recorder alike.
func readResponse(rq *request, status int, body io.Reader, start time.Time, s *sample, t *truth) *wireResult {
	if status != http.StatusOK {
		s.refused = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		msg, _ := io.ReadAll(io.LimitReader(body, 4096)) // best effort: the status already fails the request
		s.err = fmt.Errorf("request %d: status %d: %s", rq.index, status, bytes.TrimSpace(msg))
		return nil
	}
	var res *wireResult
	if rq.stream {
		res, s.err = readStream(body, start, s)
	} else {
		var reply queryResponse
		if err := json.NewDecoder(body).Decode(&reply); err != nil {
			s.err = fmt.Errorf("request %d: decoding body: %w", rq.index, err)
		} else if reply.Result == nil {
			s.err = fmt.Errorf("request %d: body has no result", rq.index)
		}
		res = reply.Result
	}
	s.tts = time.Since(start)
	if s.err != nil {
		return nil
	}
	s.blocks = res.BlocksFetched
	s.verdict, s.err = checkResult(rq, res, t)
	return res
}

// readStream consumes an NDJSON stream: progress lines with strictly
// increasing rounds, then exactly one terminal result line.
func readStream(body io.Reader, start time.Time, s *sample) (*wireResult, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	lastRound := 0
	var res *wireResult
	for {
		raw, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			var line streamLine
			if jerr := json.Unmarshal(raw, &line); jerr != nil {
				return nil, fmt.Errorf("request %d: stream line: %w", s.index, jerr)
			}
			switch {
			case res != nil:
				return nil, fmt.Errorf("request %d: line after the terminal result", s.index)
			case line.Error != nil:
				return nil, fmt.Errorf("request %d: stream error %s: %s", s.index, line.Error.Code, line.Error.Message)
			case line.Progress != nil:
				if s.lines == 0 {
					s.ttfi = time.Since(start)
				}
				if line.Progress.Round <= lastRound {
					return nil, fmt.Errorf("request %d: round %d after round %d", s.index, line.Progress.Round, lastRound)
				}
				lastRound = line.Progress.Round
				s.lines++
			case line.Result != nil:
				res = line.Result
			default:
				return nil, fmt.Errorf("request %d: stream line is neither progress, result nor error", s.index)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("request %d: reading stream: %w", s.index, err)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("request %d: stream ended without a result line", s.index)
	}
	if s.lines == 0 {
		return nil, fmt.Errorf("request %d: stream had no progress line", s.index)
	}
	return res, nil
}

// A caller is one closed-loop client: do sends a request and reads its
// reply to the end, idle (optional) runs between two requests and
// outside both their cycles, close releases what the client holds.
type caller struct {
	do    func(ctx context.Context, rq *request) sample
	idle  func()
	close func()
}

// httpCaller makes callers that talk to srv over loopback HTTP and read
// its CPU clock around every request. With one client the difference is
// that request's cost; with more it also holds the others' concurrent
// work. Between requests a caller runs idle.
func httpCaller(srv *server, truth map[string]*truth, idle func()) func() caller {
	return func() caller {
		c := newClient(srv.url, truth)
		do := func(ctx context.Context, rq *request) sample {
			before, err0 := srv.cpuTime()
			s := c.do(ctx, rq)
			after, err1 := srv.cpuTime()
			if err := errors.Join(err0, err1); err != nil && s.err == nil {
				s.err = fmt.Errorf("request %d: reading the server's CPU clock: %w", rq.index, err)
			}
			s.cpu = after - before
			return s
		}
		return caller{do: do, idle: idle, close: c.close}
	}
}

// drive replays reqs in a closed loop from n callers for the given
// time (the whole list once when seconds is 0) and returns every
// sample with the wall time from the first send to the last reply.
func drive(ctx context.Context, newCaller func() caller, reqs []request, n int, seconds float64) ([]sample, time.Duration) {
	var next atomic.Int64
	perClient := make([][]sample, n)
	deadline := time.Duration(seconds * float64(time.Second))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newCaller()
			defer c.close()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if seconds == 0 && i >= len(reqs) {
					return
				}
				if seconds > 0 && time.Since(start) >= deadline {
					return
				}
				sent := time.Now()
				s := c.do(ctx, &reqs[i%len(reqs)])
				s.sent, s.cycle = sent.Sub(start), time.Since(sent)
				perClient[ci] = append(perClient[ci], s)
				if c.idle != nil {
					c.idle()
				}
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, wall
}
