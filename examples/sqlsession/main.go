// Example sqlsession demonstrates the Engine/Session API: a registry
// of named tables, SQL text queries, a session-level δ error budget,
// and context-based cancellation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fastframe"
)

func main() {
	tab, err := fastframe.GenerateFlights(1_000_000, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Budget the whole session: across up to 100 queries, the chance
	// that ANY reported interval misses its true value stays below
	// 1e-12 (each query runs at δ = 1e-14 by union bound).
	eng := fastframe.NewEngine(fastframe.WithSessionBudget(1e-12, 100))
	if err := eng.Register("flights", tab); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()

	// An interactive ad-hoc query: stop once the mean is known to ±5%.
	res, err := eng.Query(ctx,
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 5%")
	if err != nil {
		log.Fatal(err)
	}
	g := res.Groups[0]
	fmt.Printf("ORD mean delay: %v  (%d rows covered, %.1fms)\n",
		g.Answers[0], res.RowsCovered, float64(res.Duration.Microseconds())/1000)

	// A HAVING query: stops once every airline is decided above or
	// below the threshold w.h.p.
	res, err = eng.Query(ctx,
		"SELECT AVG(DepDelay) FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 12")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("airlines above 12min: %v\n", res.DecidedAbove(12))

	// A deadline-bounded query: whatever intervals exist when the
	// deadline fires are still valid (1−δ) CIs.
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
	defer cancel()
	res, err = eng.Query(shortCtx,
		"SELECT SUM(DepDelay) FROM flights GROUP BY Origin ORDER BY SUM(DepDelay) DESC LIMIT 3",
		fastframe.WithRoundRows(10_000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-3 scan after 2ms: aborted=%v, %d groups bounded so far\n",
		res.Aborted, len(res.Groups))

	total, perQuery := eng.SessionBudget()
	fmt.Printf("session: %d queries, error ≤ %.2g of budget %.2g (δ=%.2g per query)\n",
		eng.QueriesRun(), eng.SessionError(), total, perQuery)
}
