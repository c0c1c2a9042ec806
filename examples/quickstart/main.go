// Quickstart: approximate an average with a rigorous confidence
// interval, orders of magnitude faster than an exact scan.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"fastframe"
)

func main() {
	ctx := context.Background()
	// Synthesize a 4M-row Flights table (Origin, Airline, DepDelay,
	// DepTime, DayOfWeek). In a real deployment you would load your own
	// data with fastframe.NewTableBuilder.
	fmt.Println("generating 4M flights rows...")
	tab, err := fastframe.GenerateFlights(4_000_000, 42)
	if err != nil {
		log.Fatal(err)
	}

	// "What is the average departure delay out of ORD?" — stop as soon
	// as the answer is known to within 10% relative error, with
	// probability 1−1e−15 (effectively deterministic).
	q := fastframe.Avg("DepDelay").
		Where("Origin", "ORD").
		StopAtRelError(0.10).
		Named("ord-delay")

	res, err := tab.Query(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	approx := res.Groups[0]
	fmt.Printf("approximate: AVG(DepDelay) = %v\n", approx.Answers[0])
	fmt.Printf("  using %d samples, %d of %d blocks, %.1fms\n",
		approx.Samples, res.BlocksFetched, tab.NumBlocks(),
		float64(res.Duration.Microseconds())/1000)

	// Compare with the exact answer (full scan).
	ex, err := tab.QueryExact(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	truth := ex.Groups[0].Stats[0]
	fmt.Printf("exact:       AVG(DepDelay) = %.6g (full scan: %.1fms)\n",
		truth, float64(ex.Duration.Microseconds())/1000)
	fmt.Printf("speedup: %.1fx; interval contains truth: %v\n",
		ex.Duration.Seconds()/res.Duration.Seconds(), approx.Answers[0].Contains(truth))
}
