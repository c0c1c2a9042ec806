package fastframe

import (
	"context"
	"iter"
	"sync"

	"fastframe/internal/query"
)

// Rows is a pull-based cursor over the per-round snapshots of one
// running approximate query — the interactive face of the paper's
// online-aggregation loop. Each interval-recomputation round produces
// one Progress snapshot whose confidence intervals tighten round by
// round until the stopping rule fires:
//
//	rows, _ := stmt.Stream(ctx, "ORD")
//	defer rows.Close()
//	for rows.Next() {
//	    display(rows.Snapshot()) // intervals tighten every round
//	}
//	res, err := rows.Final() // == the one-shot Query result
//
// The scan runs on its own goroutine but is fully consumer-paced: the
// snapshot hand-off is unbuffered, so the scan blocks at each round
// barrier until the consumer pulls (or closes) — a slow display never
// piles up stale snapshots, and a closed cursor never scans ahead.
//
// Close aborts the scan at the next round boundary; the snapshots
// already delivered — and the partial Final result, which has Aborted
// set — keep their (1−δ) guarantee, by the optional-stopping
// construction. The final round's snapshot (the one that satisfied the
// stopping rule) is delivered like any other, so draining the cursor
// observes the complete convergence trajectory.
//
// A Rows is a single-consumer cursor: Next/Snapshot/Final must not be
// called concurrently with each other, but Close may be called from
// any goroutine (e.g. to abort a blocked Next) and is idempotent.
type Rows struct {
	snaps chan Progress
	stop  chan struct{}
	done  chan struct{}

	closeOnce sync.Once
	cur       Progress

	// res, err and panicked are written by the producer goroutine before
	// done is closed, and only read after <-done.
	res      *Result
	err      error
	panicked any // a panic out of the scan, re-raised by Final
}

// Stream starts an approximate query as a pull-based cursor. It is
// Query's streaming counterpart: draining the cursor and taking Final
// yields exactly the one-shot result. Execution errors (an unknown
// column, say) surface on the first Next/Final/Err call, not here.
func (t *Table) Stream(ctx context.Context, q QueryBuilder, opts ...Option) (*Rows, error) {
	var s runSettings
	s.apply(opts)
	return t.stream(ctx, q.build(), s, nil), nil
}

// stream is the shared producer beneath Table.Stream, Engine.Stream
// and Stmt.Stream. onDone, if set, observes the terminal result exactly
// once (the engine charges its session budget there).
func (t *Table) stream(ctx context.Context, q query.Query, s runSettings, onDone func(*Result, error)) *Rows {
	r := &Rows{
		snaps: make(chan Progress), // unbuffered: consumer-paced backpressure
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	user := s.onProgress
	s.onProgress = func(p Progress) bool {
		if user != nil && !user(p) {
			return false // a WithProgress veto aborts the stream too
		}
		select {
		case r.snaps <- p:
			return true
		case <-r.stop:
			return false // Close: abort at this round boundary
		case <-ctx.Done():
			return false // cancelled consumer is gone; don't block the scan
		}
	}
	go func() {
		defer close(r.done)
		defer func() { r.panicked = recover() }()
		res, err := t.runQuery(ctx, q, s)
		r.res, r.err = res, err
		if onDone != nil {
			onDone(res, err)
		}
	}()
	return r
}

// Next advances to the next round snapshot, blocking until the scan
// completes a round. It returns false once the scan has finished —
// stopping rule satisfied, scramble exhausted, aborted, or failed
// (check Err, or take Final) — or after Close.
func (r *Rows) Next() bool {
	select {
	case <-r.stop:
		return false
	default:
	}
	select {
	case p := <-r.snaps:
		r.cur = p
		return true
	case <-r.done:
		return false
	}
}

// Snapshot returns the snapshot Next advanced to. It is meaningful
// only after a Next call that returned true.
func (r *Rows) Snapshot() Progress { return r.cur }

// Final drains any remaining rounds, waits for the scan to finish, and
// returns the terminal result: exactly what the one-shot Query on the
// same statement would have returned or, after Close, the partial
// result with Aborted set (its intervals remain valid CIs at the point
// the scan stopped). A panic out of the scan (a WithProgress callback,
// say) is re-raised here, on the consumer's goroutine, rather than
// killing the process from the producer's.
func (r *Rows) Final() (*Result, error) {
	for r.Next() {
	}
	<-r.done
	if r.panicked != nil {
		panic(r.panicked)
	}
	return r.res, r.err
}

// Err returns the scan's terminal error, or nil while it is still
// running or when it completed cleanly. An abort via Close or context
// cancellation is not an error: it yields a valid partial result.
func (r *Rows) Err() error {
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}

// Close aborts the scan at the next round boundary and blocks until
// the producer has shut down. It is idempotent and safe to call from
// any goroutine. After Close, Final returns the partial result with
// Aborted set. Close returns the scan's terminal error, like Err.
func (r *Rows) Close() error {
	r.closeOnce.Do(func() { close(r.stop) })
	<-r.done
	return r.err
}

// Rounds adapts the cursor to a Go range-over-func iterator:
//
//	for p := range rows.Rounds() {
//	    fmt.Println(p.Round, p.Groups)
//	}
//
// The loop ends when the scan finishes; breaking out early leaves the
// cursor open (the scan stays blocked at its round barrier), so pair
// Rounds with defer rows.Close() like any other cursor use.
func (r *Rows) Rounds() iter.Seq[Progress] {
	return func(yield func(Progress) bool) {
		for r.Next() {
			if !yield(r.cur) {
				return
			}
		}
	}
}
