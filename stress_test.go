package fastframe

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestConcurrentQueryStress hammers one table with goroutines that
// repeatedly run queries through every exit path — convergence, row
// caps, context cancellation mid-round, and Rows.Close mid-stream — and
// checks three invariants: no goroutines leak, every produced result
// carries well-formed intervals (aborted ones included: the
// optional-stopping construction keeps partial intervals valid wherever
// the scan stops), and nothing races (the suite runs under -race in CI).
func TestConcurrentQueryStress(t *testing.T) {
	tab := smallFlights(t) // arms the goroutine-leak check

	const workers = 8
	iters := 12
	if testing.Short() {
		iters = 4
	}

	checkResult := func(res *Result, kind string) {
		t.Helper()
		if res == nil {
			t.Errorf("%s: nil result without error", kind)
			return
		}
		for _, g := range res.Groups {
			iv := g.Answers[0]
			if !(iv.Lo <= iv.Estimate && iv.Estimate <= iv.Hi) {
				t.Errorf("%s: malformed interval for %q: %+v", kind, g.Key, iv)
			}
			if g.Samples <= 0 {
				t.Errorf("%s: group %q reported with no samples", kind, g.Key)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0x57e))
			for i := 0; i < iters; i++ {
				seed := rng.Uint64()
				opts := []Option{
					WithDelta(1e-9),
					WithRoundRows(1000),
					WithSeed(seed),
				}
				switch i % 4 {
				case 0: // converge normally
					res, err := tab.Query(context.Background(),
						Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.1), opts...)
					if err != nil {
						t.Errorf("converge: %v", err)
						continue
					}
					checkResult(res, "converge")
				case 1: // row cap mid-round
					res, err := tab.Query(context.Background(),
						Sum("DepDelay").GroupBy("Airline"), append(opts, WithMaxRows(3000+int(seed%5000)))...)
					if err != nil {
						t.Errorf("maxrows: %v", err)
						continue
					}
					checkResult(res, "maxrows")
				case 2: // context cancellation mid-round
					ctx, cancel := context.WithCancel(context.Background())
					res, err := tab.Query(ctx,
						Avg("DepDelay").GroupBy("Airline"),
						append(opts, WithProgress(func(p Progress) bool {
							if p.Round == 1+int(seed%3) {
								cancel()
							}
							return true
						}))...)
					cancel()
					if err != nil {
						t.Errorf("cancel: %v", err)
						continue
					}
					if !res.Aborted && !res.Stopped && !res.Exhausted {
						t.Errorf("cancel: result neither aborted nor finished: %+v", res)
					}
					checkResult(res, "cancel")
				case 3: // Rows.Close after a few rounds
					rows, err := tab.Stream(context.Background(),
						CountRows().WhereGreater("DepTime", 1200), opts...)
					if err != nil {
						t.Errorf("stream: %v", err)
						continue
					}
					pulls := int(seed % 3)
					for k := 0; k <= pulls && rows.Next(); k++ {
						snap := rows.Snapshot()
						if snap.Round <= 0 {
							t.Errorf("stream: snapshot without a round: %+v", snap)
						}
					}
					if err := rows.Close(); err != nil {
						t.Errorf("stream close: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
