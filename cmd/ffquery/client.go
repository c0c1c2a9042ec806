package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"fastframe"
	"fastframe/internal/serve"
)

// client POSTs queries to a running ffserved daemon and renders the
// responses exactly like local mode.
type client struct {
	base  string // daemon base URL, e.g. http://localhost:8080
	token string // tenant bearer token, "" for the anonymous tenant
	http  http.Client
}

// run executes one query remotely: plan first (like local mode), then
// the one-shot or streamed query, then the optional exact comparison.
func (c *client) run(ctx context.Context, sqlText string, stream, exact bool) error {
	if plan, err := c.explain(ctx, sqlText); err != nil {
		return err
	} else {
		fmt.Printf("plan: %s\n", plan)
	}

	var res *fastframe.Result
	var err error
	if stream {
		res, err = c.stream(ctx, sqlText)
	} else {
		res, err = c.query(ctx, sqlText)
	}
	if err != nil {
		return err
	}

	var ex *fastframe.ExactResult
	if exact {
		// The server runs the exact scan too (δ-free), so the remote
		// rendering keeps the ground-truth comparison column.
		if ex, err = c.queryExact(ctx, sqlText); err != nil {
			return err
		}
	}
	printResult(res, ex)
	return nil
}

// do POSTs one JSON request and decodes a JSON response, mapping
// structured error bodies onto readable errors.
func (c *client) do(ctx context.Context, path string, reqBody, respBody any) error {
	resp, err := c.post(ctx, path, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(respBody)
}

func (c *client) post(ctx context.Context, path string, reqBody any) (*http.Response, error) {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(c.base, "/")+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return c.http.Do(req)
}

// explain fetches the logical plan.
func (c *client) explain(ctx context.Context, sqlText string) (string, error) {
	u := strings.TrimSuffix(c.base, "/") + "/v1/explain?sql=" + url.QueryEscape(sqlText)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	var body serve.ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.Plan, nil
}

// query runs one one-shot approximate query.
func (c *client) query(ctx context.Context, sqlText string) (*fastframe.Result, error) {
	var resp serve.QueryResponse
	if err := c.do(ctx, "/v1/query", serve.QueryRequest{SQL: sqlText}, &resp); err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("server response carries no result")
	}
	return resp.Result, nil
}

// queryExact runs the exact evaluation server-side.
func (c *client) queryExact(ctx context.Context, sqlText string) (*fastframe.ExactResult, error) {
	var resp serve.QueryResponse
	if err := c.do(ctx, "/v1/query", serve.QueryRequest{SQL: sqlText, Exact: true}, &resp); err != nil {
		return nil, err
	}
	if resp.Exact == nil {
		return nil, fmt.Errorf("server response carries no exact result")
	}
	return resp.Exact, nil
}

// stream runs the query over /v1/stream, printing one line per round
// as the NDJSON lines arrive, and returns the terminal result.
func (c *client) stream(ctx context.Context, sqlText string) (*fastframe.Result, error) {
	resp, err := c.post(ctx, "/v1/stream", serve.QueryRequest{SQL: sqlText})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line serve.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("decoding stream line: %w", err)
		}
		switch {
		case line.Progress != nil:
			printProgress(*line.Progress)
		case line.Result != nil:
			return line.Result, nil
		case line.Error != nil:
			return nil, fmt.Errorf("%s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a terminal result line")
}

// decodeError maps a non-200 response onto an error, preferring the
// structured body.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e serve.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error.Code != "" {
		return fmt.Errorf("%s", &e.Error)
	}
	return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
}
