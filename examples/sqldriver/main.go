// FastFrame through database/sql: the ffdriver package registers the
// engine as a standard SQL driver, so ordinary database/sql code —
// prepared statements, parameter binding, row scanning — issues
// approximate queries with confidence-interval columns.
//
//	go run ./examples/sqldriver
package main

import (
	"fmt"
	"log"

	"fastframe"
	ffdriver "fastframe/driver"
)

func main() {
	tab, err := fastframe.GenerateFlights(400_000, 3)
	if err != nil {
		log.Fatal(err)
	}
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", tab); err != nil {
		log.Fatal(err)
	}

	// Wrap the engine in a *sql.DB. (Alternatively RegisterEngine +
	// sql.Open("fastframe", name).)
	db := ffdriver.OpenDB(eng)
	defer db.Close()

	// A parameterized GROUP BY through the stdlib interface: one result
	// row per group, with estimate and CI bounds as columns.
	stmt, err := db.Prepare(
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = ? GROUP BY Airline WITHIN ABS ?")
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()

	for _, origin := range []string{"ORD", "LAX"} {
		rows, err := stmt.Query(origin, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mean departure delay by airline out of %s (±0.5 w.h.p.):\n", origin)
		for rows.Next() {
			var (
				airline                  string
				est, lo, hi              float64
				samples                  int64
				exact, aborted, degraded bool
			)
			if err := rows.Scan(&airline, &est, &lo, &hi, &samples, &exact, &aborted, &degraded); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-3s %8.3f ∈ [%8.3f, %8.3f]  (%d samples, exact=%v)\n",
				airline, est, lo, hi, samples, exact)
		}
		if err := rows.Err(); err != nil {
			log.Fatal(err)
		}
		rows.Close()
	}
}
