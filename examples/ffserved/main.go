// Embedding the HTTP query service in-process: build an Engine, mount
// serve.New on a test listener, and watch a streamed query's
// confidence intervals tighten round by round over the wire — the
// same NDJSON protocol ffserved speaks, without running the daemon.
//
//	go run ./examples/ffserved
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"fastframe"
	"fastframe/internal/serve"
)

func main() {
	// The engine any ffserved daemon owns: tables registered up front,
	// options fixed for reproducible answers.
	tab, err := fastframe.GenerateFlights(200_000, 42)
	if err != nil {
		log.Fatal(err)
	}
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		log.Fatal(err)
	}

	// Two tenants: "analytics" pays δ per query out of a budget and is
	// rate-limited; anonymous requests run unlimited (demo only).
	srv, err := serve.New(eng, serve.Config{
		Tenants: []serve.TenantConfig{
			{Name: "analytics", Token: "s3cret", QueryDelta: 0.01, DeltaBudget: 0.2, RatePerSec: 10, MaxConcurrent: 4},
			{Name: "anonymous"},
		},
		Options:      []fastframe.Option{fastframe.WithSeed(42), fastframe.WithRoundRows(10_000)},
		QueryTimeout: 30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Stream a grouped query: one NDJSON line per interval-recomputation
	// round, terminal result line last.
	body, _ := json.Marshal(serve.QueryRequest{
		SQL: "SELECT AVG(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 5%",
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("stream status %s", resp.Status)
	}

	fmt.Println("round  rows      widest CI")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var line serve.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			log.Fatal(err)
		}
		switch {
		case line.Progress != nil:
			widest := 0.0
			for _, g := range line.Progress.Groups {
				if w := g.Answers[0].Hi - g.Answers[0].Lo; w > widest {
					widest = w
				}
			}
			fmt.Printf("%5d  %8d  ±%.3f\n", line.Progress.Round, line.Progress.RowsCovered, widest/2)
		case line.Result != nil:
			fmt.Printf("\nfinal (%d rounds, %d of %d rows):\n", line.Result.Rounds, line.Result.RowsCovered, tab.NumRows())
			for _, g := range line.Result.Groups {
				fmt.Printf("  day %s: %.2f ∈ [%.2f, %.2f]\n", g.Key, g.Answers[0].Estimate, g.Answers[0].Lo, g.Answers[0].Hi)
			}
			fmt.Printf("tenant %s spent δ=%.3g of budget %.3g\n",
				line.Accounting.Tenant, line.Accounting.DeltaSpent, line.Accounting.DeltaBudget)
		case line.Error != nil:
			log.Fatal(line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// One-shot queries share the same tenant budget — and exhaustion is
	// a structured 429, not a silent wrong answer.
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained: every in-flight stream ended with a valid partial interval")
}
