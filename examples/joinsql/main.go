// SQL star/snowflake joins end to end: register dimension tables on an
// Engine, JOIN them in SQL (one-shot, prepared with '?' parameters, and
// through database/sql), and watch the dimension predicate compile into
// a fact-side IN key set in the plan.
//
//	go run ./examples/joinsql
package main

import (
	"context"
	"fmt"
	"log"

	"fastframe"
	ffdriver "fastframe/driver"
)

func main() {
	ctx := context.Background()

	fmt.Println("generating 1M flights rows (fact table)...")
	fact, err := fastframe.GenerateFlights(1_000_000, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Dimensions: airports (region, state per Origin) and — one
	// snowflake level deeper — states (zone per state).
	origins, err := fact.CategoricalValues("Origin")
	if err != nil {
		log.Fatal(err)
	}
	airports := fastframe.NewDimension("airports")
	regions := []string{"west", "east", "south"}
	statesByIdx := []string{"CA", "NY", "TX", "WA"}
	for i, code := range origins {
		airports.Add(code, map[string]string{
			"region": regions[i%len(regions)],
			"state":  statesByIdx[i%len(statesByIdx)],
		})
	}
	states := fastframe.NewDimension("states")
	states.Add("CA", map[string]string{"zone": "pacific"})
	states.Add("WA", map[string]string{"zone": "pacific"})
	states.Add("NY", map[string]string{"zone": "atlantic"})
	states.Add("TX", map[string]string{"zone": "gulf"})

	eng := fastframe.NewEngine()
	must(eng.Register("flights", fact))
	must(eng.RegisterDimension("airports", airports))
	must(eng.RegisterDimension("states", states))
	must(eng.AttachDimension("flights", "Origin", "airports")) // star arm
	must(eng.AttachDimension("airports", "state", "states"))   // snowflake chain

	// One-shot JOIN: the dimension predicate compiles, at bind time,
	// into Origin IN {matching airport keys} — visible in the plan.
	const joinSQL = "SELECT AVG(DepDelay) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region = 'west' AND DepDelay > 0 " +
		"GROUP BY DayOfWeek WITHIN 5%"
	plan, err := eng.Explain(joinSQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan:\n%s\n\n", plan)
	res, err := eng.Query(ctx, joinSQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("west positive-delay AVG by weekday (%d of %d blocks fetched):\n",
		res.BlocksFetched, fact.NumBlocks())
	for _, g := range res.Groups {
		fmt.Printf("  %s: %v\n", g.Key, g.Answers[0])
	}

	// Prepared: '?' works in dimension value positions too.
	stmt, err := eng.Prepare("SELECT COUNT(*) FROM flights " +
		"JOIN airports ON flights.Origin = airports.key " +
		"WHERE airports.region IN (?, ?) WITHIN 10%")
	if err != nil {
		log.Fatal(err)
	}
	for _, pair := range [][2]string{{"west", "south"}, {"east", "south"}} {
		r, err := stmt.Query(ctx, pair[0], pair[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flights from %s∪%s regions: %v\n", pair[0], pair[1], r.Groups[0].Answers[0])
	}

	// Snowflake: a predicate two joins away from the fact table.
	r, err := eng.Query(ctx, "SELECT AVG(DepDelay) FROM flights "+
		"JOIN airports ON flights.Origin = airports.key "+
		"JOIN states ON airports.state = states.key "+
		"WHERE states.zone = 'pacific' WITHIN 5%")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pacific-zone AVG(DepDelay): %v\n", r.Groups[0].Answers[0])

	// database/sql: the same join view through the standard interface.
	db := ffdriver.OpenDB(eng)
	defer db.Close()
	rows, err := db.Query("SELECT AVG(DepDelay) FROM flights "+
		"JOIN airports ON flights.Origin = airports.key "+
		"WHERE airports.region = ? GROUP BY DayOfWeek WITHIN ABS ?", "east", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	fmt.Println("east region by weekday via database/sql:")
	for rows.Next() {
		var (
			key                      string
			est, lo, hi              float64
			samples                  int64
			exact, aborted, degraded bool
		)
		if err := rows.Scan(&key, &est, &lo, &hi, &samples, &exact, &aborted, &degraded); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %.3f ∈ [%.3f, %.3f] (%d samples)\n", key, est, lo, hi, samples)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
