package serve

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// UsageRecord is one JSONL line of the usage log — the durable record
// of one produced query result (or terminal failure). Records are
// emitted by the handler with a non-blocking channel send and written
// in batches by the accounter goroutine, so accounting cost never sits
// on the query path.
type UsageRecord struct {
	Time    time.Time `json:"time"`
	Tenant  string    `json:"tenant"`
	Kind    string    `json:"kind"` // query | stream | exact
	SQL     string    `json:"sql"`
	OK      bool      `json:"ok"`
	Error   string    `json:"error,omitempty"`
	Delta   float64   `json:"delta,omitempty"`  // δ charged (0: exact/failed)
	Rounds  int       `json:"rounds,omitempty"` // looks taken (stream: lines sent), the ramp's included
	Rows    int       `json:"rows,omitempty"`
	Blocks  int       `json:"blocks,omitempty"`
	Aborted bool      `json:"aborted,omitempty"`
	MS      float64   `json:"ms"` // wall-clock handler time
}

// acctCounters are the in-memory aggregates the accounter maintains
// per tenant (plus a global line), served at /v1/stats.
type acctCounters struct {
	Queries int
	Streams int
	Rounds  int // progress lines streamed; one-shot queries add none
	Rows    int64
	Blocks  int64
	Errors  int
}

// accounter is the asynchronous batched usage recorder: records enter
// a buffered channel and a single goroutine drains them, updating
// in-memory counters and flushing JSONL lines to the usage log every
// flushEvery interval or batchSize records, whichever first. A full
// channel drops the record (and counts the drop) rather than ever
// blocking a query handler.
type accounter struct {
	ch   chan UsageRecord
	done chan struct{}

	// closeMu serializes record sends against close: a handler that
	// slipped past the draining check must drop its record, not panic
	// on a closed channel.
	closeMu sync.RWMutex
	closed  bool

	mu       sync.Mutex
	perTen   map[string]*acctCounters
	global   acctCounters
	dropped  int
	recorded int

	w          io.Writer // JSONL sink, nil = counters only
	flushEvery time.Duration
	batchSize  int
}

const (
	acctBuffer     = 1024
	acctBatchSize  = 64
	acctFlushEvery = 250 * time.Millisecond
)

func newAccounter(w io.Writer, flushEvery time.Duration) *accounter {
	if flushEvery <= 0 {
		flushEvery = acctFlushEvery
	}
	a := &accounter{
		ch:         make(chan UsageRecord, acctBuffer),
		done:       make(chan struct{}),
		perTen:     make(map[string]*acctCounters),
		w:          w,
		flushEvery: flushEvery,
		batchSize:  acctBatchSize,
	}
	go a.loop()
	return a
}

// record enqueues one usage record without ever blocking: if the
// accounter is saturated (or already closed), the record is dropped
// and counted.
func (a *accounter) record(rec UsageRecord) {
	a.closeMu.RLock()
	defer a.closeMu.RUnlock()
	if a.closed {
		a.drop()
		return
	}
	select {
	case a.ch <- rec:
	default:
		a.drop()
	}
}

func (a *accounter) drop() {
	a.mu.Lock()
	a.dropped++
	a.mu.Unlock()
}

// loop is the accounter goroutine: batch, count, flush.
func (a *accounter) loop() {
	ticker := time.NewTicker(a.flushEvery)
	defer ticker.Stop()
	batch := make([]UsageRecord, 0, a.batchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		a.apply(batch)
		batch = batch[:0]
	}
	for {
		select {
		case rec, ok := <-a.ch:
			if !ok {
				flush()
				close(a.done)
				return
			}
			batch = append(batch, rec)
			if len(batch) >= a.batchSize {
				flush()
			}
		case <-ticker.C:
			flush()
		}
	}
}

// apply folds one batch into the counters and writes its JSONL lines.
func (a *accounter) apply(batch []UsageRecord) {
	a.mu.Lock()
	for _, rec := range batch {
		a.recorded++
		c := a.perTen[rec.Tenant]
		if c == nil {
			c = &acctCounters{}
			a.perTen[rec.Tenant] = c
		}
		for _, c := range [2]*acctCounters{c, &a.global} {
			if !rec.OK {
				c.Errors++
				continue
			}
			if rec.Kind == "stream" {
				c.Streams++
				c.Rounds += rec.Rounds
			} else {
				c.Queries++
			}
			c.Rows += int64(rec.Rows)
			c.Blocks += int64(rec.Blocks)
		}
	}
	a.mu.Unlock()
	if a.w == nil {
		return
	}
	enc := json.NewEncoder(a.w)
	for _, rec := range batch {
		enc.Encode(rec) // a failed usage write must not fail queries
	}
}

// counters returns a snapshot of one tenant's asynchronous counters.
func (a *accounter) counters(tenant string) acctCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.perTen[tenant]; c != nil {
		return *c
	}
	return acctCounters{}
}

// globalCounters returns the cross-tenant totals plus bookkeeping.
func (a *accounter) globalCounters() (c acctCounters, recorded, dropped int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.global, a.recorded, a.dropped
}

// close flushes everything still queued and stops the goroutine;
// records arriving afterwards are dropped.
func (a *accounter) close() {
	a.closeMu.Lock()
	if a.closed {
		a.closeMu.Unlock()
		<-a.done
		return
	}
	a.closed = true
	close(a.ch)
	a.closeMu.Unlock()
	<-a.done
}
