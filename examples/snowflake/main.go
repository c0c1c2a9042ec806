// Snowflake-schema join views: attach a dimension table to the fact
// scramble and query through dimension attributes — the paper's
// §Extensibility. The dimension predicate compiles into a fact-side IN
// predicate, so the CI guarantees and block pruning apply unchanged to
// the join view.
//
//	go run ./examples/snowflake
package main

import (
	"context"
	"fmt"
	"log"

	"fastframe"
)

// airportRegions is a toy dimension: airport → region.
var airportRegions = map[string]string{
	"ORD": "midwest", "DFW": "south", "ATL": "south", "LAX": "west",
	"PHX": "west", "DEN": "west", "DTW": "midwest", "IAH": "south",
	"MSP": "midwest", "SFO": "west", "SEA": "west", "SLC": "west",
	"LAS": "west", "SAN": "west", "PDX": "west", "OAK": "west",
	"SMF": "west", "SJC": "west", "SNA": "west", "BUR": "west",
}

func main() {
	fmt.Println("generating 2M flights rows (fact table)...")
	fact, err := fastframe.GenerateFlights(2_000_000, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Build the airports dimension: every origin gets a region (default
	// "other" for codes not in the toy map).
	origins, err := fact.CategoricalValues("Origin")
	if err != nil {
		log.Fatal(err)
	}
	airports := fastframe.NewDimension("airports")
	for _, code := range origins {
		region := airportRegions[code]
		if region == "" {
			region = "other"
		}
		airports.Add(code, map[string]string{"region": region})
	}

	schema := fastframe.NewStarSchema(fact)
	if err := schema.Attach("Origin", airports); err != nil {
		log.Fatal(err)
	}

	// "Is the average delay of west-region departures above 9 minutes?"
	// — a HAVING-style decision over a join view.
	q := fastframe.Avg("DepDelay").StopWhenThresholdDecided(9).Named("west-delay")
	q, err = schema.WhereDimension(q, "Origin", "region", "west")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n\n", q)

	res, err := schema.Query(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	ex, err := schema.RunExact(q)
	if err != nil {
		log.Fatal(err)
	}

	g := res.Groups[0]
	side := "ABOVE 9"
	if g.Answers[0].Hi < 9 {
		side = "below 9"
	}
	fmt.Printf("join view AVG(DepDelay) = %v → %s\n", g.Answers[0], side)
	fmt.Printf("exact join answer: %.4f (speedup %.1fx, %d of %d blocks)\n",
		ex.Groups[0].Stats[0],
		ex.Duration.Seconds()/res.Duration.Seconds(),
		res.BlocksFetched, fact.NumBlocks())
	fmt.Printf("decision correct: %v\n",
		(g.Answers[0].Lo > 9) == (ex.Groups[0].Stats[0] > 9) || g.Answers[0].Contains(9))
}
