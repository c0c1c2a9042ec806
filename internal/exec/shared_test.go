package exec

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// sharedOpts is the base configuration the shared-scan equivalence
// suite runs under, mirroring the P-equivalence suite.
func sharedOpts() Options {
	return Options{
		Bounder:    bernsteinRT(),
		Delta:      1e-9,
		RoundRows:  1000,
		StartBlock: 17,
	}
}

// captureRounds hooks OnRound to record every snapshot (the Progress
// stream) while letting the scan run.
func captureRounds(opts *Options) *[]RoundSnapshot {
	snaps := &[]RoundSnapshot{}
	opts.OnRound = func(s RoundSnapshot) bool {
		*snaps = append(*snaps, s)
		return true
	}
	return snaps
}

// pendingLen reads the driver's queued-but-unadmitted query count.
func (d *SharedDriver) pendingLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// waitPending blocks until n queries sit in the driver's pending queue
// — the same-package synchronization hook the staggered-admission tests
// use to make admission rounds deterministic.
func (d *SharedDriver) waitPending(tb testing.TB, n int) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.pendingLen() < n {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %d pending queries (have %d)", n, d.pendingLen())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSharedSoloEquivalence is the headline cooperative-scan property
// in its simplest form: a lone query routed through the SharedDriver
// anchors the scan at its own start block and must reproduce the solo
// RunContext execution byte for byte — Result and the full per-round
// Progress stream — across query shapes and both strategies.
func TestSharedSoloEquivalence(t *testing.T) {
	tab := buildTestTable(t, 30_000, 7)
	for _, q := range equivQueries() {
		for _, st := range []Strategy{Scan, Active} {
			opts := sharedOpts()
			opts.Strategy = st

			so := opts
			soloSnaps := captureRounds(&so)
			solo, err := RunContext(context.Background(), tab, q, so)
			if err != nil {
				t.Fatalf("%s/%s solo: %v", q.Name, st, err)
			}

			sh := opts
			sharedSnaps := captureRounds(&sh)
			shared, err := NewSharedDriver(tab).Run(context.Background(), q, sh)
			if err != nil {
				t.Fatalf("%s/%s shared: %v", q.Name, st, err)
			}

			if !reflect.DeepEqual(stripDuration(solo), stripDuration(shared)) {
				t.Errorf("%s/%s: shared result differs from solo\nsolo:   %+v\nshared: %+v",
					q.Name, st, solo, shared)
			}
			if !reflect.DeepEqual(*soloSnaps, *sharedSnaps) {
				t.Errorf("%s/%s: shared progress stream differs from solo (%d vs %d rounds)",
					q.Name, st, len(*soloSnaps), len(*sharedSnaps))
			}
		}
	}
}

// replaySolo re-runs a query solo from the start block a shared
// execution recorded and returns the result plus progress stream.
func replaySolo(tb testing.TB, tab *table.Table, q query.Query, opts Options, startBlock int) (*Result, []RoundSnapshot) {
	tb.Helper()
	opts.StartBlock = startBlock
	opts.Rng = nil
	snaps := captureRounds(&opts)
	res, err := RunContext(context.Background(), tab, q, opts)
	if err != nil {
		tb.Fatalf("solo replay of %s from block %d: %v", q.Name, startBlock, err)
	}
	return res, *snaps
}

// TestSharedStaggeredAdmission admits queries at different round
// boundaries of an ongoing cooperative scan and checks each against a
// solo replay from its recorded admission block: arriving mid-scan
// must not change a query's Result or Progress stream, only where it
// starts.
func TestSharedStaggeredAdmission(t *testing.T) {
	tab := buildTestTable(t, 30_000, 23)
	d := NewSharedDriver(tab)

	late := []query.Query{
		{
			Name:    "late-sum-grouped-threshold",
			Aggs:    []query.Aggregate{{Kind: query.Sum, Column: "value"}},
			GroupBy: []string{"airline"},
			Stop:    query.Threshold(1000),
		},
		{
			Name: "late-count-pred-abswidth",
			Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: query.Predicate{}.AndGreater("time", 1200),
			Stop: query.AbsWidth(2000),
		},
		{
			Name:    "late-avg-grouped-topk",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred:    query.Predicate{}.AndCatIn("origin", "O0", "O2", "O4"),
			GroupBy: []string{"airline"},
			Stop:    query.TopK(2),
		},
	}
	type outcome struct {
		res   *Result
		snaps []RoundSnapshot
		err   error
	}
	results := make([]outcome, len(late))
	var wg sync.WaitGroup

	// The anchor query scans to exhaustion; its OnRound launches one
	// late query at rounds 2, 4 and 6 and holds the round barrier open
	// (driver-synchronous callback) until the newcomer is pending, so
	// each admission lands at a distinct, known boundary.
	anchor := query.Query{
		Name: "anchor-avg-exhaust",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.Exhaust(),
	}
	ao := sharedOpts()
	anchorSnaps := []RoundSnapshot{}
	ao.OnRound = func(s RoundSnapshot) bool {
		anchorSnaps = append(anchorSnaps, s)
		if s.Round == 2 || s.Round == 4 || s.Round == 6 {
			i := s.Round/2 - 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo := sharedOpts()
				snaps := captureRounds(&lo)
				res, err := d.Run(context.Background(), late[i], lo)
				results[i] = outcome{res: res, snaps: *snaps, err: err}
			}()
			d.waitPending(t, 1)
		}
		return true
	}
	anchorRes, err := d.Run(context.Background(), anchor, ao)
	if err != nil {
		t.Fatalf("anchor: %v", err)
	}
	wg.Wait()

	// The anchor itself anchored an idle driver, so it equals a plain
	// solo run of the same options.
	soloRes, soloSnaps := replaySolo(t, tab, anchor, sharedOpts(), 17)
	if !reflect.DeepEqual(stripDuration(soloRes), stripDuration(anchorRes)) {
		t.Errorf("anchor differs from solo:\nsolo:   %+v\nshared: %+v", soloRes, anchorRes)
	}
	if !reflect.DeepEqual(soloSnaps, anchorSnaps) {
		t.Errorf("anchor progress stream differs from solo (%d vs %d rounds)", len(soloSnaps), len(anchorSnaps))
	}

	for i, out := range results {
		if out.err != nil {
			t.Fatalf("late[%d] %s: %v", i, late[i].Name, out.err)
		}
		res, snaps := replaySolo(t, tab, late[i], sharedOpts(), out.res.StartBlock)
		if !reflect.DeepEqual(stripDuration(res), stripDuration(out.res)) {
			t.Errorf("late[%d] %s admitted at block %d differs from solo replay:\nsolo:   %+v\nshared: %+v",
				i, late[i].Name, out.res.StartBlock, res, out.res)
		}
		if !reflect.DeepEqual(snaps, out.snaps) {
			t.Errorf("late[%d] %s: progress stream differs from solo replay (%d vs %d rounds)",
				i, late[i].Name, len(snaps), len(out.snaps))
		}
	}
}

// TestSharedStopModesConcurrent runs the three termination families —
// converged, aborted (OnRound veto, context cancellation, MaxRows) and
// exact (exhaustion) — concurrently on one driver, then replays each
// solo from its recorded admission block. Detaching early must not
// disturb the queries that keep scanning, and every abort path must
// leave the same valid partial intervals as its solo counterpart.
func TestSharedStopModesConcurrent(t *testing.T) {
	tab := buildTestTable(t, 30_000, 29)
	d := NewSharedDriver(tab)

	type job struct {
		name  string
		q     query.Query
		tune  func(*Options) // applied identically to shared run and solo replay
		abort bool           // expected Result.Aborted
	}
	jobs := []job{
		{
			name: "converged-relwidth",
			q: query.Query{
				Name: "avg-relwidth",
				Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				Stop: query.RelWidth(0.05),
			},
		},
		{
			name: "aborted-onround",
			q: query.Query{
				Name:    "avg-grouped-exhaust",
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				GroupBy: []string{"airline"},
				Stop:    query.Exhaust(),
			},
			tune: func(o *Options) {
				inner := o.OnRound
				o.OnRound = func(s RoundSnapshot) bool {
					inner(s)
					return s.Round < 3
				}
			},
			abort: true,
		},
		{
			name: "aborted-maxrows",
			q: query.Query{
				Name:    "sum-grouped-exhaust",
				Aggs:    []query.Aggregate{{Kind: query.Sum, Column: "value"}},
				GroupBy: []string{"airline"},
				Stop:    query.Exhaust(),
			},
			tune: func(o *Options) { o.MaxRows = 4321 }, // mid-round, mid-block
		},
		{
			name: "exact-exhaust",
			q: query.Query{
				Name:    "avg-two-group-exhaust",
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				GroupBy: []string{"airline", "origin"},
				Stop:    query.Exhaust(),
			},
		},
	}

	type outcome struct {
		res   *Result
		snaps []RoundSnapshot
		err   error
	}
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			o := sharedOpts()
			snaps := captureRounds(&o)
			if j.tune != nil {
				j.tune(&o)
			}
			res, err := d.Run(context.Background(), j.q, o)
			results[i] = outcome{res: res, snaps: *snaps, err: err}
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		out := results[i]
		if out.err != nil {
			t.Fatalf("%s: %v", j.name, out.err)
		}
		if j.abort && !out.res.Aborted {
			t.Errorf("%s: expected Aborted", j.name)
		}
		o := sharedOpts()
		o.StartBlock = out.res.StartBlock
		snaps := captureRounds(&o)
		if j.tune != nil {
			j.tune(&o)
		}
		res, err := RunContext(context.Background(), tab, j.q, o)
		if err != nil {
			t.Fatalf("%s solo replay: %v", j.name, err)
		}
		if !reflect.DeepEqual(stripDuration(res), stripDuration(out.res)) {
			t.Errorf("%s from block %d differs from solo replay:\nsolo:   %+v\nshared: %+v",
				j.name, out.res.StartBlock, res, out.res)
		}
		if !reflect.DeepEqual(*snaps, out.snaps) {
			t.Errorf("%s: progress stream differs from solo replay (%d vs %d rounds)",
				j.name, len(*snaps), len(out.snaps))
		}
	}
}

// TestSharedContextCancelMidRound cancels an attached query's context
// mid-scan and checks the abort matches the solo abort byte for byte:
// cancellation is observed at the round barrier following the cancel,
// exactly as RunContext documents.
func TestSharedContextCancelMidRound(t *testing.T) {
	tab := buildTestTable(t, 30_000, 31)
	q := query.Query{
		Name: "avg-exhaust",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.Exhaust(),
	}
	run := func(shared bool) *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := sharedOpts()
		o.OnRound = func(s RoundSnapshot) bool {
			if s.Round == 2 {
				cancel()
			}
			return true
		}
		var res *Result
		var err error
		if shared {
			res, err = NewSharedDriver(tab).Run(ctx, q, o)
		} else {
			res, err = RunContext(ctx, tab, q, o)
		}
		if err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
		return stripDuration(res)
	}
	solo, shared := run(false), run(true)
	if !solo.Aborted || solo.Rounds != 2 {
		t.Fatalf("solo cancel malformed: %+v", solo)
	}
	if !reflect.DeepEqual(solo, shared) {
		t.Errorf("cancelled shared scan differs from solo:\nsolo:   %+v\nshared: %+v", solo, shared)
	}
}

// TestSharedScanSharing pins the point of the whole exercise: N
// overlapping identical queries physically fetch roughly one scan's
// worth of blocks, not N scans' worth, while each still reports its
// solo-equivalent BlocksFetched.
func TestSharedScanSharing(t *testing.T) {
	tab := buildTestTable(t, 30_000, 37)
	d := NewSharedDriver(tab)
	const n = 8
	q := query.Query{
		Name: "avg-exhaust",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.Exhaust(),
	}

	// The first query holds its first round barrier open until the
	// other seven are pending, guaranteeing the cohort overlaps no
	// matter how the test goroutines get scheduled.
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	launched := make(chan struct{})
	o0 := sharedOpts()
	once := false
	o0.OnRound = func(s RoundSnapshot) bool {
		if !once {
			once = true
			close(launched)
			d.waitPending(t, n-1)
		}
		return true
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = d.Run(context.Background(), q, o0)
	}()
	<-launched
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := sharedOpts()
			results[i], errs[i] = d.Run(context.Background(), q, o)
		}(i)
	}
	wg.Wait()

	nb := tab.Layout().NumBlocks()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if results[i].BlocksFetched != nb {
			t.Errorf("query %d: BlocksFetched = %d, want solo-equivalent %d", i, results[i].BlocksFetched, nb)
		}
		if !results[i].Exhausted {
			t.Errorf("query %d: not exhausted", i)
		}
	}
	st := d.Stats()
	if st.QueriesServed != n {
		t.Errorf("QueriesServed = %d, want %d", st.QueriesServed, n)
	}
	if want := int64(n * nb); st.BlocksDemanded != want {
		t.Errorf("BlocksDemanded = %d, want %d", st.BlocksDemanded, want)
	}
	// One circulation plus the late cohort's wrap tail (≤ one round of
	// blocks for their staggered start) — far below n scans.
	if lim := int64(nb) + int64(n*sharedOpts().RoundRows/25); st.BlocksFetched > lim {
		t.Errorf("BlocksFetched = %d, want ≈ one scan (≤ %d); demanded %d", st.BlocksFetched, lim, st.BlocksDemanded)
	}
}

// TestSharedValidationAndIdle covers the driver's edges: RunContext's
// validation errors surface identically, a pre-cancelled context never
// attaches, the driver goroutine parks when idle and restarts for
// later arrivals, and a tiny table (including MaxRows exactly at the
// table size) stays byte-identical.
func TestSharedValidationAndIdle(t *testing.T) {
	tab := buildTestTable(t, 60, 41) // 3 blocks of 25
	d := NewSharedDriver(tab)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.Exhaust(),
	}

	if _, err := d.Run(context.Background(), q, Options{}); err == nil {
		t.Error("missing bounder not rejected")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Run(cancelled, q, sharedOpts()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled context: got %v, want context.Canceled", err)
	}
	bad := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "nope"}}, Stop: query.Exhaust()}
	if _, err := d.Run(context.Background(), bad, sharedOpts()); err == nil {
		t.Error("unknown column not rejected")
	}

	for round := 0; round < 2; round++ { // twice: driver restarts after idling
		for _, maxRows := range []int{0, 60, 30} {
			o := sharedOpts()
			o.RoundRows = 10
			o.MaxRows = maxRows
			solo, err := RunContext(context.Background(), tab, q, o)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := d.Run(context.Background(), q, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripDuration(solo), stripDuration(shared)) {
				t.Errorf("tiny table maxRows=%d: shared differs\nsolo:   %+v\nshared: %+v", maxRows, solo, shared)
			}
		}
		// Let the driver park before the next batch.
		deadline := time.Now().Add(5 * time.Second)
		for {
			d.mu.Lock()
			running := d.running
			d.mu.Unlock()
			if !running {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("driver did not park after going idle")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}
