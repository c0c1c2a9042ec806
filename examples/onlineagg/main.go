// Online aggregation: watch per-group confidence intervals tighten
// round by round — the paper's §2.1 "explicit use of downstream CIs"
// (the classic online-aggregation interface) — and stop the moment the
// picture is clear enough, via the OnProgress callback. Whenever you
// stop, the intervals on screen are valid (1−δ) CIs.
//
//	go run ./examples/onlineagg
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"fastframe"
)

func main() {
	fmt.Println("generating 2M flights rows...")
	tab, err := fastframe.GenerateFlights(2_000_000, 33)
	if err != nil {
		log.Fatal(err)
	}

	// Average delay per airline, with an (intentionally) unreachable
	// accuracy target: only the viewer decides when to stop.
	q := fastframe.Avg("DepDelay").GroupBy("Airline").StopAtAbsError(0.001)

	onRound := func(p fastframe.Progress) bool {
		fmt.Printf("\nround %d — %d rows covered, %d groups still active\n",
			p.Round, p.RowsCovered, p.ActiveGroups)
		for _, g := range p.Groups {
			fmt.Printf("  %-4s %8.2f  %s\n", g.Key, g.Answers[0].Estimate, bar(g.Answers[0].Lo, g.Answers[0].Hi))
		}
		// "I've seen enough": stop once every interval is narrower
		// than ±2 minutes.
		for _, g := range p.Groups {
			if g.Answers[0].Width() > 4 {
				return true // keep scanning
			}
		}
		return false
	}
	res, err := tab.Query(context.Background(), q,
		fastframe.WithRoundRows(100_000), // redraw the "screen" every 100k rows
		fastframe.WithProgress(onRound))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstopped by the viewer after %d rounds (%d of %d blocks); aborted=%v\n",
		res.Rounds, res.BlocksFetched, tab.NumBlocks(), res.Aborted)
	fmt.Println("every interval shown above was already a valid 1−δ confidence interval.")
}

// bar renders an interval on a fixed [0, 25] axis.
func bar(lo, hi float64) string {
	const width, maxV = 50, 25.0
	clamp := func(v float64) int {
		p := int(v / maxV * width)
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	l, h := clamp(lo), clamp(hi)
	var sb strings.Builder
	for i := 0; i < width; i++ {
		switch {
		case i >= l && i <= h:
			sb.WriteByte('#')
		default:
			sb.WriteByte('.')
		}
	}
	return sb.String()
}
