package exec

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastframe/internal/query"
	"fastframe/internal/scramble"
	"fastframe/internal/table"
)

// SharedDriver coordinates cooperative scans over one table: instead of
// N concurrent queries each running their own scan loop over largely
// the same blocks, a single driver goroutine circulates over the
// scramble and steps every attached query through each span of blocks
// in lockstep, so the physical read of a block is shared by all queries
// that want it.
//
// Sharing changes nothing a query can observe. Each attached query is
// a complete private engine — its own cursor, coverage counters, round
// arithmetic, bounder states and OnRound callback — positioned at the
// driver's frontier when it is admitted, and the driver does to it
// exactly what RunContext does: call advance until it is done — only by
// the shortest span any attached engine can take before its own round
// barrier or row cap, so the cohort stays on one frontier; the only
// shared effect is that a span's rows are resident once instead of N
// times. Every query's Result, Progress
// stream and interval sequence is therefore byte-identical to a solo
// execution with Options.StartBlock set to its admission block — which
// is what Result.StartBlock records. A query whose admission finds the
// driver idle anchors the frontier at its own requested start (the
// seed-drawn random position), so non-overlapping queries degrade to
// exactly solo behavior.
//
// Queries are admitted at looks only — any attached query's interval
// recomputation points, its ramp's included — and detach the moment their
// stopping condition, row cap, context abort or exhaustion fires,
// without disturbing the others. Per-query block pruning (static mask +
// zone maps) and active-scan skipping still apply individually: a block
// is physically fetched only if at least one attached query wants its
// rows.
//
// OnRound callbacks run synchronously on the driver goroutine, so a
// consumer that stalls inside one (e.g. an unread Rows stream) paces
// every query sharing the scan until its context times out or it
// closes — the same consumer-paced contract as solo streaming, widened
// to the cohort. Serving layers should bound query lifetimes. A panic
// while a query is stepped — in its kernel, a bounder or its OnRound
// callback — detaches that query alone and is re-raised by its Run, on
// the caller's goroutine; the rest of the cohort and the driver carry
// on.
type SharedDriver struct {
	t *table.Table

	mu      sync.Mutex
	pending []*sharedQuery
	running bool

	queriesServed  atomic.Int64
	blocksFetched  atomic.Int64 // physical reads: union over attached queries
	blocksDemanded atomic.Int64 // solo-equivalent reads: sum over queries
}

// SharedScanStats is a snapshot of a driver's cumulative sharing
// effectiveness. BlocksDemanded is what the same queries would have
// read running solo; BlocksFetched is what the cooperative scan
// actually read (each block once per circulation, if anyone wanted it).
type SharedScanStats struct {
	QueriesServed  int64
	BlocksFetched  int64
	BlocksDemanded int64
}

// sharedQuery is one query's seat on the driver: its private engine,
// its outcome and its completion signal.
type sharedQuery struct {
	e  *engine
	t0 time.Time

	res      *Result
	err      error
	panicked any // recovered on the driver, re-raised by Run
	done     chan struct{}
}

// NewSharedDriver returns a driver for t with no queries attached. The
// driver goroutine starts on demand and exits when idle.
func NewSharedDriver(t *table.Table) *SharedDriver {
	return &SharedDriver{t: t}
}

// Stats returns the driver's cumulative counters.
func (d *SharedDriver) Stats() SharedScanStats {
	return SharedScanStats{
		QueriesServed:  d.queriesServed.Load(),
		BlocksFetched:  d.blocksFetched.Load(),
		BlocksDemanded: d.blocksDemanded.Load(),
	}
}

// Run executes q cooperatively and blocks until it completes. It is the
// shared-scan counterpart of RunContext: same validation, same Options
// semantics (the seed Rng draws the query's preferred start position),
// same Result — byte-identical to RunContext for the same start block.
func (d *SharedDriver) Run(ctx context.Context, q query.Query, opts Options) (*Result, error) {
	e, err := prepare(ctx, d.t, q, opts)
	if err != nil {
		return nil, err
	}
	sq := &sharedQuery{e: e, t0: time.Now(), done: make(chan struct{})}
	d.mu.Lock()
	d.pending = append(d.pending, sq)
	if !d.running {
		d.running = true
		go d.loop()
	}
	d.mu.Unlock()
	<-sq.done
	if sq.panicked != nil {
		panic(sq.panicked)
	}
	return sq.res, sq.err
}

// cohort is the driver goroutine's scan state: the attached queries,
// the frontier block they scan next, and — within the span being scanned
// — how far through the attached list it has got (a span interrupted by
// one query's panic resumes with the others still in lockstep) and which
// of its blocks anyone has read so far (engine.fetchedMask).
type cohort struct {
	attached []*sharedQuery
	pos      int
	next     int
	fetched  uint64
}

// detach removes attached[i], preserving order.
func (c *cohort) detach(i int) {
	c.attached = append(c.attached[:i], c.attached[i+1:]...)
}

// loop is the driver goroutine: admit pending queries, scan to the next
// round boundary, repeat; exit when nothing is attached or pending (the
// exit decision and Run's start decision are serialized by d.mu, so a
// query is never stranded in pending).
func (d *SharedDriver) loop() {
	var c cohort
	for {
		// Admission point. Yield first: the scan segment below is
		// CPU-bound with no blocking calls, so on a saturated (or
		// single-CPU) machine goroutines waiting to enqueue in Run would
		// otherwise never be scheduled before the boundary closes and
		// concurrent queries would degrade to serial solo scans. Then
		// take the lock once per round boundary, not per block.
		runtime.Gosched()
		d.mu.Lock()
		incoming := d.pending
		d.pending = nil
		if len(incoming) == 0 && len(c.attached) == 0 {
			d.running = false
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()

		for _, sq := range incoming {
			if err := sq.e.ctx.Err(); err != nil {
				// A context that ended while the query was queued, before
				// any work: ctx.Err and no Result, as in RunContext.
				sq.err = err
				sq.e.releaseViews()
				close(sq.done)
				continue
			}
			if len(c.attached) == 0 {
				// Idle driver: anchor the frontier at the newcomer's own
				// requested start, making a lone shared query exactly a
				// solo run.
				c.pos = sq.e.cursor.Start()
			} else {
				sq.e.cursor = scramble.NewCursor(sq.e.layout, c.pos)
			}
			c.attached = append(c.attached, sq)
		}
		d.scan(&c)
	}
}

// scan circulates the cohort to the next admission boundary: one span
// of the scramble per iteration — the shortest any attached query can
// take before its own round barrier, row cap or end of walk — every
// attached query advanced through it in lockstep. A boundary is any
// attached query's look (ramp or full round) or detach, or — so that a
// cohort of huge-round queries still admits newcomers promptly — one
// smallest-round span of rows. A block counts as physically read once
// if any attached query read it.
func (d *SharedDriver) scan(c *cohort) {
	admitEvery := 0
	for _, sq := range c.attached {
		if admitEvery == 0 || sq.e.opts.RoundRows < admitEvery {
			admitEvery = sq.e.opts.RoundRows
		}
	}
	layout := d.t.Layout()
	sinceAdmit := 0
	for boundary := false; !boundary && len(c.attached) > 0; {
		n := c.attached[0].e.spanLen()
		for _, sq := range c.attached[1:] {
			n = min(n, sq.e.spanLen())
		}
		for c.next, c.fetched = 0, 0; c.next < len(c.attached); {
			if d.step(c, n) {
				boundary = true
			}
		}
		d.blocksFetched.Add(int64(bits.OnesCount64(c.fetched)))
		if n > 0 {
			sinceAdmit += layout.RowsIn(c.pos, n)
			c.pos = (c.pos + n) % layout.NumBlocks()
		}
		if sinceAdmit >= admitEvery {
			boundary = true
		}
	}
}

// step advances attached[c.next:] through the n-block span at the
// frontier and reports whether any of them closed a round or detached.
// The recover below is the one place a stepped query's panic is caught
// (once per span, nothing per block): the query being advanced detaches
// with the panic as its outcome, and scan's next step resumes the span
// with the rest.
func (d *SharedDriver) step(c *cohort, n int) (boundary bool) {
	defer func() {
		if r := recover(); r != nil {
			sq := c.attached[c.next]
			sq.panicked = r
			c.fetched |= sq.e.fetchedMask
			c.detach(c.next)
			d.finish(sq)
			boundary = true
		}
	}()
	for c.next < len(c.attached) {
		sq := c.attached[c.next]
		if sq.e.advance(n) {
			boundary = true
		}
		c.fetched |= sq.e.fetchedMask
		if sq.e.done {
			d.finish(sq)
			c.detach(c.next)
			boundary = true
			continue
		}
		c.next++
	}
	return boundary
}

// finish completes a detaching query: release its pins, take its
// outcome (unless a panic is its outcome), fold its cost
// into the sharing counters and wake its Run.
func (d *SharedDriver) finish(sq *sharedQuery) {
	sq.e.releaseViews()
	if sq.panicked == nil {
		sq.res, sq.err = sq.e.outcome(sq.t0)
	}
	d.blocksDemanded.Add(int64(sq.e.cursor.BlocksFetched()))
	d.queriesServed.Add(1)
	close(sq.done)
}
