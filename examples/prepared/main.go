// Prepared statements and the streaming cursor: compile a
// parameterized query once, run it with different bindings, and watch
// one run's confidence intervals tighten round by round through the
// pull-based Rows cursor until the stopping rule fires.
//
//	go run ./examples/prepared
package main

import (
	"context"
	"fmt"
	"log"

	"fastframe"
)

func main() {
	tab, err := fastframe.GenerateFlights(2_000_000, 11)
	if err != nil {
		log.Fatal(err)
	}
	eng := fastframe.NewEngine(fastframe.WithSessionBudget(1e-12, 100))
	if err := eng.Register("flights", tab); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Compile once: the SQL text is lexed, parsed and planned a single
	// time; every run below only binds arguments.
	stmt, err := eng.Prepare(
		"SELECT COUNT(*) FROM flights WHERE Origin = ? AND DepTime > ? WITHIN ?%",
		fastframe.WithSeed(11),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stmt.Explain())
	fmt.Println()

	// Run many: same plan, different bindings. A loose 10% target
	// stops after a fraction of the scramble.
	for _, origin := range []string{"ORD", "ATL", "LAX"} {
		res, err := stmt.Query(ctx, origin, 1200.0, 10.0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s departures after 12:00 — %v (scanned %4.1f%% of rows, stopped=%v)\n",
			origin, res.Groups[0].Answers[0], 100*float64(res.RowsCovered)/float64(tab.NumRows()), res.Stopped)
	}

	// Stream one run at a tighter 2% target: the cursor delivers a
	// snapshot per interval-recomputation round; the scan is
	// consumer-paced, and Close would abort it with the partial
	// intervals still valid.
	fmt.Println("\nstreaming ORD at a 2% target:")
	rows, err := stmt.Stream(ctx, "ORD", 1200.0, 2.0)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	for p := range rows.Rounds() {
		g := p.Groups[0]
		if p.Round%5 == 0 || g.Answers[0].Width() <= 0.02*g.Answers[0].Estimate {
			fmt.Printf("  round %2d: %8d rows covered, count ∈ [%9.0f, %9.0f]\n",
				p.Round, p.RowsCovered, g.Answers[0].Lo, g.Answers[0].Hi)
		}
	}
	res, err := rows.Final()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: %v after %d rounds (stopped=%v)\n",
		res.Groups[0].Answers[0], res.Rounds, res.Stopped)

	// One-shot Engine.Query traffic reuses plans too: the engine keeps
	// an LRU cache keyed by SQL text, so only the first occurrence of a
	// statement pays for parsing.
	const oneShot = "SELECT COUNT(*) FROM flights WHERE Origin = 'ORD' WITHIN 10%"
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(ctx, oneShot, fastframe.WithSeed(uint64(i))); err != nil {
			log.Fatal(err)
		}
	}
	hits, misses, size := eng.PlanCacheStats()
	fmt.Printf("\nplan cache after 3 identical one-shot queries: %d hits, %d misses, %d cached\n",
		hits, misses, size)
}
