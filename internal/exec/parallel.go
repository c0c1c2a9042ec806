package exec

import "sync"

// This file holds what the engine does on more than one goroutine
// (Options.Parallelism ≥ 2): joining the workers a span of blocks is
// split over (engine.scanSpan), and recomputing many groups' bounds at a
// round barrier. The round loop (advance), the per-block path
// (scanBlocks) and the emit (replay) are the ones a single worker runs:
// the span is cut into contiguous partitions scanned with no shared
// mutable state; when all workers have finished, their integer counters
// are folded (exact, order-insensitive) and goroutine s replays the
// groups of shard s walking the workers in scan order, so every bounder
// state receives exactly the update sequence a single worker would have
// issued. Results are therefore bit-identical for every worker count on
// a fixed scramble, and the (1−δ) optional-stopping guarantee carries
// over unchanged. Cancellation is checked at round barriers only:
// workers always drain their bounded partition first, which keeps
// cancellation latency under one round and never leaks a goroutine.

// minParallelCloseGroups is the group count below which a look's bound
// recomputation stays on the engine's goroutine: the break-even
// BenchmarkCloseGroups measures. A fanOut onto a parked processor takes
// ≈ 10 µs to start and join and ≈ 40 µs until its half is done, a group's
// close ≈ 0.1 µs: two goroutines lose at 420 groups, first win at 2048.
const minParallelCloseGroups = 2048

// fanOut runs fn(0) … fn(n−1) on n goroutines and waits for them. It is
// the one place the engine joins workers, and so the one place a panic
// on a worker goroutine (a kernel, a bounder) is caught: the first one
// is re-raised here, on the goroutine driving the engine, where the
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
	n := len(e.ordered)
	if e.par < 2 || n < minParallelCloseGroups {
		e.closeSegment(e.ordered, deltaRound)
		return
	}
	per := (n + e.par - 1) / e.par
	fanOut((n+per-1)/per, func(i int) {
		e.closeSegment(e.ordered[i*per:min((i+1)*per, n)], deltaRound)
	})
}

func (e *engine) closeSegment(seg []*groupState, deltaRound float64) {
	for _, gs := range seg {
		gs.closeRound(deltaRound, e.coveredAll, e.cfg)
	}
}
