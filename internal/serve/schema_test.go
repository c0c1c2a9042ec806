package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// keyPaths returns the sorted dotted path of every object key in the
// JSON document raw, each prefixed with label; "[]" marks a step into
// an array's elements.
func keyPaths(t *testing.T, label string, raw []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v in %s", label, err, raw)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				seen[label+" "+p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range v {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", doc)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// readBody returns a 200 response's body.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestWireKeySchema pins every JSON key a client can read. Round-trip
// tests decode with the same types that encode, so a renamed key passes
// them; this compares the key paths of live responses with a literal
// list instead.
func TestWireKeySchema(t *testing.T) {
	const grouped = "SELECT AVG(DepDelay), MEDIAN(DepDelay) FROM flights GROUP BY Airline WITHIN 20%"
	var got []string

	_, ts, _ := newTestServer(t, Config{})
	got = append(got, keyPaths(t, "query", readBody(t, postJSON(t, ts.URL, "/v1/query", "", QueryRequest{SQL: grouped})))...)
	got = append(got, keyPaths(t, "exact", readBody(t, postJSON(t, ts.URL, "/v1/query", "", QueryRequest{SQL: grouped, Exact: true})))...)
	lines := strings.Split(strings.TrimSpace(string(readBody(t, postJSON(t, ts.URL, "/v1/stream", "", QueryRequest{SQL: grouped})))), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream sent %d lines", len(lines))
	}
	got = append(got, keyPaths(t, "stream.progress", []byte(lines[0]))...)
	got = append(got, keyPaths(t, "stream.result", []byte(lines[len(lines)-1]))...)

	// Out of core with half the blocks of one column unreadable: a
	// degraded answer, and /v1/stats with a storage section and the
	// buffer pool's nonzero fault counters.
	_, fts, ooc := newFaultServer(t, Config{DegradedReads: true})
	ooc.InjectStorageFault(func(col, block, attempt int) error {
		if col == 0 && block%2 == 1 {
			return errors.New("injected permanent fault")
		}
		return nil
	})
	got = append(got, keyPaths(t, "degraded", readBody(t, postJSON(t, fts.URL, "/v1/query", "", QueryRequest{SQL: "SELECT AVG(DepDelay) FROM flights WITHIN 0.01%"})))...)
	resp, err := http.Get(fts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, keyPaths(t, "stats", readBody(t, resp))...)

	if want := strings.Split(strings.TrimSpace(wireKeySchema), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("wire key paths changed:\n%s", strings.Join(got, "\n"))
	}
}

// wireKeySchema is the key set the service sends, one "label path" a
// line in TestWireKeySchema's order.
const wireKeySchema = `
query accounting
query accounting.delta_charged
query accounting.delta_spent
query accounting.tenant
query result
query result.aborted
query result.agg_index
query result.aggs
query result.blocks_fetched
query result.duration_ns
query result.exhausted
query result.groups
query result.groups[].answers
query result.groups[].answers[].estimate
query result.groups[].answers[].hi
query result.groups[].answers[].lo
query result.groups[].exact
query result.groups[].key
query result.groups[].samples
query result.rounds
query result.rows_covered
query result.start_block
query result.stopped
exact accounting
exact accounting.delta_charged
exact accounting.delta_spent
exact accounting.tenant
exact exact
exact exact.aggs
exact exact.duration_ns
exact exact.groups
exact exact.groups[].count
exact exact.groups[].key
exact exact.groups[].stats
stream.progress progress
stream.progress progress.active_groups
stream.progress progress.aggs
stream.progress progress.blocks_fetched
stream.progress progress.groups
stream.progress progress.groups[].answers
stream.progress progress.groups[].answers[].estimate
stream.progress progress.groups[].answers[].hi
stream.progress progress.groups[].answers[].lo
stream.progress progress.groups[].exact
stream.progress progress.groups[].key
stream.progress progress.groups[].samples
stream.progress progress.round
stream.progress progress.rows_covered
stream.result accounting
stream.result accounting.delta_charged
stream.result accounting.delta_spent
stream.result accounting.tenant
stream.result result
stream.result result.aborted
stream.result result.agg_index
stream.result result.aggs
stream.result result.blocks_fetched
stream.result result.duration_ns
stream.result result.exhausted
stream.result result.groups
stream.result result.groups[].answers
stream.result result.groups[].answers[].estimate
stream.result result.groups[].answers[].hi
stream.result result.groups[].answers[].lo
stream.result result.groups[].exact
stream.result result.groups[].key
stream.result result.groups[].samples
stream.result result.rounds
stream.result result.rows_covered
stream.result result.start_block
stream.result result.stopped
degraded accounting
degraded accounting.delta_charged
degraded accounting.delta_spent
degraded accounting.tenant
degraded result
degraded result.aborted
degraded result.agg_index
degraded result.aggs
degraded result.blocks_fetched
degraded result.degraded
degraded result.duration_ns
degraded result.exhausted
degraded result.groups
degraded result.groups[].answers
degraded result.groups[].answers[].estimate
degraded result.groups[].answers[].hi
degraded result.groups[].answers[].lo
degraded result.groups[].exact
degraded result.groups[].key
degraded result.groups[].samples
degraded result.quarantined_blocks
degraded result.rounds
degraded result.rows_covered
degraded result.start_block
degraded result.stopped
stats buffer_pool
stats buffer_pool.budget_bytes
stats buffer_pool.bytes_read
stats buffer_pool.evictions
stats buffer_pool.hits
stats buffer_pool.io_errors
stats buffer_pool.misses
stats buffer_pool.pinned_frames
stats buffer_pool.quarantined_blocks
stats buffer_pool.retries
stats buffer_pool.used_bytes
stats plan_cache
stats plan_cache.hits
stats plan_cache.misses
stats plan_cache.size
stats queries_run
stats session_error
stats storage
stats storage[].breaker_state
stats storage[].checksum_failures
stats storage[].format_version
stats storage[].io_errors
stats storage[].quarantined_blocks
stats storage[].retries
stats storage[].table
stats tables
stats tenants
stats tenants[].blocks_fetched
stats tenants[].delta_spent
stats tenants[].in_flight
stats tenants[].name
stats tenants[].queries
stats tenants[].rejected_budget
stats tenants[].rejected_concurrency
stats tenants[].rejected_rate_limit
stats tenants[].rounds_streamed
stats tenants[].rows_scanned
stats uptime_seconds
stats usage
stats usage.blocks_fetched
stats usage.errors
stats usage.queries
stats usage.records
stats usage.records_dropped
stats usage.rounds_streamed
stats usage.rows_scanned
stats usage.streams
`
