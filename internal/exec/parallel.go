package exec

import "sync"

// This file holds what the engine does on more than one goroutine
// (Options.Parallelism ≥ 2): scanning a span of blocks split over the
// workers, and recomputing many groups' bounds at a round barrier. The
// round loop (advance) and the per-block path (scanBlocks) are the same
// ones a single worker runs; a split span differs only in how
// observations reach the group states:
//
//  1. The span is cut into contiguous partitions, one per worker.
//  2. The workers scan their partitions with no shared mutable state,
//     bucketing matching rows' (group, value) observations in scan
//     order into per-shard buffers and counting coverage (roundAccum).
//  3. When all have finished, the integer counters are folded (exact,
//     order-insensitive), and the observations are replayed into the
//     group states — goroutine s owns the groups of shard s and applies
//     their observations walking partitions in scan order, so every
//     bounder state receives exactly the update sequence a single
//     worker would have issued.
//
// Results — estimates, intervals, rounds consumed, blocks fetched — are
// therefore bit-identical for every worker count on a fixed scramble,
// and the (1−δ) optional-stopping guarantee carries over unchanged.
// Cancellation is checked at round barriers only: workers always drain
// their bounded partition first, which keeps cancellation latency under
// one round and never leaks a goroutine.

// minParallelCloseGroups is the group count below which the per-round
// bound recomputation stays on the engine's goroutine (fan-out would
// cost more than the loop).
const minParallelCloseGroups = 64

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

// scanSplit scans a span of at least two blocks with the engine's
// workers and replays their buffered observations in scan order.
func (e *engine) scanSplit(span []int) {
	p := len(e.workers)
	for _, w := range e.workers {
		w.reset(p, len(e.inputs))
	}
	per := (len(span) + p - 1) / p
	fanOut((len(span)+per-1)/per, func(i int) {
		e.scanBlocks(span[i*per:min((i+1)*per, len(span))], e.workers[i], false)
	})

	// A read failure in any partition aborts the scan before counters
	// fold or observations replay: a partially-observed span must not
	// move any bounder state.
	for _, w := range e.workers {
		if w.err != nil {
			e.ioErr = w.err
			return
		}
	}
	for _, w := range e.workers[1:] {
		e.workers[0].Merge(w)
	}
	e.fold(e.workers[0])

	// Sharded replay: goroutine s owns the group states of shard s and
	// walks the partitions in scan order, so each state sees its
	// observations in the order a single worker would have made them.
	fanOut(p, func(s int) {
		for _, w := range e.workers {
			sb := &w.shards[s]
			observeRuns(e, sb.gids, sb.vals)
		}
	})
}

// closeGroups recomputes every view's intervals for the round being
// closed. With enough groups and parallelism the loop is split into
// contiguous segments closed concurrently: each group's bounds are a
// pure function of its own state and the shared integer coverage
// counts, so the concurrent loop is bit-identical to the serial one.
func (e *engine) closeGroups() {
	n := len(e.ordered)
	if e.par < 2 || n < minParallelCloseGroups {
		e.closeSegment(e.ordered)
		return
	}
	per := (n + e.par - 1) / e.par
	fanOut((n+per-1)/per, func(i int) {
		e.closeSegment(e.ordered[i*per : min((i+1)*per, n)])
	})
}

func (e *engine) closeSegment(seg []*groupState) {
	for _, gs := range seg {
		gs.closeRound(e.round, e.coveredAll, e.cfg)
	}
}
