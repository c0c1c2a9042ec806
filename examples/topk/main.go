// Top-K separation with bounder ablation: find the airline with the
// worst average delay (the paper's F-q9), and compare how much data
// each error-bounding technique needs before the winner is separated
// from the rest — the paper's core result that distribution-sensitive
// bounds (Bernstein+RangeTrim) terminate far earlier than range-only
// bounds (Hoeffding).
//
//	go run ./examples/topk
package main

import (
	"context"
	"fmt"
	"log"

	"fastframe"
)

func main() {
	ctx := context.Background()
	fmt.Println("generating 4M flights rows...")
	tab, err := fastframe.GenerateFlights(4_000_000, 21)
	if err != nil {
		log.Fatal(err)
	}

	// SELECT Airline FROM flights GROUP BY Airline
	// ORDER BY AVG(DepDelay) DESC LIMIT 1
	q := fastframe.Avg("DepDelay").
		GroupBy("Airline").
		StopWhenTopKSeparated(1).
		Named("worst-airline")

	ex, err := tab.QueryExact(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	worst, worstAvg := "", -1e18
	for _, g := range ex.Groups {
		if g.Stats[0] > worstAvg {
			worst, worstAvg = g.Key, g.Stats[0]
		}
	}
	fmt.Printf("ground truth: %s with AVG(DepDelay) = %.3f (exact scan %.1fms)\n\n",
		worst, worstAvg, float64(ex.Duration.Microseconds())/1000)

	fmt.Printf("%-14s %10s %12s %12s %8s\n", "bounder", "blocks", "rows", "ms", "winner")
	for _, b := range []fastframe.Bounder{
		fastframe.Hoeffding,
		fastframe.HoeffdingRT,
		fastframe.Bernstein,
		fastframe.BernsteinRT,
	} {
		res, err := tab.Query(ctx, q, fastframe.WithBounder(b))
		if err != nil {
			log.Fatal(err)
		}
		winner, best := "", -1e18
		for _, g := range res.Groups {
			if g.Answers[0].Estimate > best {
				winner, best = g.Key, g.Answers[0].Estimate
			}
		}
		mark := winner
		if winner != worst {
			mark += " (WRONG)"
		}
		fmt.Printf("%-14v %10d %12d %12.1f %8s\n",
			b, res.BlocksFetched, res.RowsCovered,
			float64(res.Duration.Microseconds())/1000, mark)
	}
	fmt.Println("\nfewer blocks = earlier termination at identical guarantees (δ=1e−15).")
}
