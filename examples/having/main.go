// HAVING-threshold early stopping: find the airlines whose average
// departure delay exceeds a threshold, reading only as much data as it
// takes to decide each airline's side — the paper's Figure 1 / F-q2
// scenario, where the CIs are consumed by the system rather than shown
// to the user.
//
//	go run ./examples/having
package main

import (
	"context"
	"fmt"
	"log"

	"fastframe"
)

const threshold = 9.3

func main() {
	ctx := context.Background()
	fmt.Println("generating 4M flights rows...")
	tab, err := fastframe.GenerateFlights(4_000_000, 7)
	if err != nil {
		log.Fatal(err)
	}

	// SELECT Airline FROM flights GROUP BY Airline
	// HAVING AVG(DepDelay) > 9.3
	q := fastframe.Avg("DepDelay").
		GroupBy("Airline").
		StopWhenThresholdDecided(threshold).
		Named("airlines-above-threshold")

	res, err := tab.Query(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	ex, err := tab.QueryExact(ctx, q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ndecided after %d of %d blocks (%.1fms; exact scan %.1fms)\n\n",
		res.BlocksFetched, tab.NumBlocks(),
		float64(res.Duration.Microseconds())/1000,
		float64(ex.Duration.Microseconds())/1000)
	fmt.Printf("%-8s %-26s %-8s %s\n", "airline", "CI for AVG(DepDelay)", "side", "exact")
	for _, g := range res.Groups {
		side := "ABOVE"
		if g.Answers[0].Hi < threshold {
			side = "below"
		}
		fmt.Printf("%-8s [%8.3f, %8.3f]       %-8s %.3f\n",
			g.Key, g.Answers[0].Lo, g.Answers[0].Hi, side, ex.Group(g.Key).Stats[0])
	}
	fmt.Println("\nevery CI excludes the threshold, so the HAVING result set is")
	fmt.Println("correct with probability 1−δ — no subset or superset errors.")
}
