package exec

import "sync"

// This file holds the one thing the engine does on more than one
// goroutine (Options.Parallelism ≥ 2): recomputing many groups' bounds at
// a look. The scan itself — the round loop (advance), the per-block path
// (scanBlocks) and the emit (replay) — runs on the goroutine that drives
// the engine, so a worker count cannot reach any bounder state, and
// cancellation, checked at looks, never finds a goroutine to drain.

// minParallelCloseGroups is the group count below which a look's bound
// recomputation stays on the engine's goroutine. BenchmarkCloseGroups
// (2-core Xeon, medians of 10) puts a group's close at ≈ 0.13 µs and a
// fanOut onto a parked processor at ≈ 25 µs more than its half of the
// work: at 420 groups two goroutines and one are within noise of each
// other (51 vs 55 µs), at 2048 two win clearly (154 vs 258 µs). Under
// ExactCountBounds a close costs ≈ 5 µs, and two goroutines already
// nearly halve 420 groups (1.25 vs 2.25 ms). The threshold stays at 2048
// until a benchmark of concurrent queries measures what a fan-out's
// second goroutine costs the other queries sharing the processors.
const minParallelCloseGroups = 2048

// fanOut runs fn(0) … fn(n−1) on n goroutines and waits for them. It is
// the one place the engine joins workers, and so the one place a panic
// on a worker goroutine (a bounder) is caught: the first one is
// re-raised here, on the goroutine driving the engine, where the
// caller of Run — or the shared driver, on its behalf — can recover it
// instead of the process dying.
func fanOut(n int, fn func(i int)) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		caught any
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if caught == nil {
						caught = r
					}
					mu.Unlock()
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
}

// closeGroups recomputes every view's intervals for the round being
// closed. With enough groups and parallelism the loop is split into
// contiguous segments closed concurrently: each group's bounds are a
// pure function of its own state and the shared integer coverage
// counts, so the concurrent loop is bit-identical to the serial one.
func (e *engine) closeGroups(deltaRound float64) {
	n, par := len(e.ordered), e.opts.Parallelism
	if par < 2 || n < minParallelCloseGroups {
		e.closeSegment(e.ordered, deltaRound)
		return
	}
	per := (n + par - 1) / par
	fanOut((n+per-1)/per, func(i int) {
		e.closeSegment(e.ordered[i*per:min((i+1)*per, n)], deltaRound)
	})
}

func (e *engine) closeSegment(seg []*groupState, deltaRound float64) {
	for _, gs := range seg {
		gs.closeRound(deltaRound, e.coveredAll, e.cfg)
	}
}
