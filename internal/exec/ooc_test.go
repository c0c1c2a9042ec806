package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fastframe/internal/blockstore"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// openOutOfCore persists tab and opens the file out-of-core through a
// fresh pool of the given budget. Retries are instantaneous: the tests
// inject faults and have no use for real backoff.
func openOutOfCore(tb testing.TB, tab *table.Table, budget int64) (*table.Table, *blockstore.Pool) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "t.ff")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tab.WriteTo(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	pool := blockstore.NewPool(budget)
	rp := blockstore.DefaultRetryPolicy()
	rp.Sleep = func(time.Duration) {}
	pool.SetRetryPolicy(rp)
	ooc, err := table.OpenStore(path, pool)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := ooc.Close(); err != nil {
			tb.Errorf("closing the out-of-core table: %v", err)
		}
		pool.Close()
	})
	return ooc, pool
}

// requireNoPins is the pin-leak guard: whichever way the queries of a
// test left their engines, no extent may still be pinned.
func requireNoPins(tb testing.TB, pool *blockstore.Pool, when string) {
	tb.Helper()
	if n := pool.Stats().PinnedFrames; n != 0 {
		tb.Errorf("%s: %d extents still pinned", when, n)
	}
}

// TestOutOfCoreExitPaths runs the golden matrix's termination families
// — stop rule, OnRound abort, exhaustion, MaxRows cap — over a table
// paged through a pool of a few extents, and through one too small for
// a single extent. The
// 800-block table is 12½ extents a column and scans start at block 13,
// mid-extent, so an exhaustive scan wraps around into the extent it
// started in. Every outcome — Result and Progress stream — must equal
// the resident table's, and no exit path may leave an extent pinned.
func TestOutOfCoreExitPaths(t *testing.T) {
	tab := buildTestTable(t, 20_000, 7)
	qs := kernelQueries()
	for _, budget := range []int64{96 << 10, 1 << 10} {
		ooc, pool := openOutOfCore(t, tab, budget)
		for _, q := range qs {
			for _, st := range []Strategy{Scan, Active} {
				for _, m := range goldenModes() {
					name := fmt.Sprintf("budget=%d/%s/%s/%s", budget, q.Name, st, m.name)
					mq := q
					mq.Stop = m.stop(q)
					run := func(tb *table.Table) string {
						o, snaps := goldenOpts(st, m)
						res, err := Run(tb, mq, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						return goldenOutcome(res, *snaps)
					}
					if want, got := run(tab), run(ooc); got != want {
						t.Errorf("%s differs from resident\nresident:    %s\nout-of-core: %s", name, want, got)
					}
					requireNoPins(t, pool, name)
				}
			}
		}
		if st := pool.Stats(); st.Misses == 0 || st.Evictions == 0 {
			t.Errorf("budget=%d: the pool never paged: %+v", budget, st)
		}
	}
}

// TestOutOfCoreAbortAndFailurePaths covers the exits the golden modes
// do not: context cancellation, a permanent read failure (ioErr), the
// degraded skip of that one block, and a bounder panic — each leaving
// nothing pinned.
func TestOutOfCoreAbortAndFailurePaths(t *testing.T) {
	tab := buildTestTable(t, 20_000, 11)
	ooc, pool := openOutOfCore(t, tab, 96<<10)
	q := equivQueries()[1] // grouped SUM over every block
	q.Stop = query.Exhaust()
	valueCol := ooc.Schema().Lookup("value")
	// Inside extent 6 (blocks 384..447), which no run below leaves cached
	// for the next: a cached block is not read, so cannot fail.
	const badBlock = 400
	base := fixedOpts()

	// Context cancelled from inside round 2.
	ctx, cancel := context.WithCancel(context.Background())
	o := base
	o.OnRound = func(s RoundSnapshot) bool {
		if s.Round == 2 {
			cancel()
		}
		return true
	}
	res, err := RunContext(ctx, ooc, q, o)
	cancel()
	if err != nil || !res.Aborted || res.Rounds != 2 {
		t.Errorf("cancel: res=%+v err=%v, want an abort at round 2", res, err)
	}
	requireNoPins(t, pool, "cancel")

	// One permanently failing block: the default mode surfaces it …
	ooc.Store().SetFault(func(col, block, attempt int) error {
		if col == valueCol && block == badBlock {
			return errors.New("injected permanent fault")
		}
		return nil
	})
	_, err = Run(ooc, q, base)
	var be *blockstore.BlockError
	if !errors.As(err, &be) || be.Col != valueCol || be.Block != badBlock {
		t.Errorf("ioErr: err=%v, want a BlockError at col %d block %d", err, valueCol, badBlock)
	}
	requireNoPins(t, pool, "ioErr")

	// … and degraded reads skip exactly that block: its rows, and no
	// neighbour's in the same extent, stay unobserved.
	o = base
	o.DegradedReads = true
	res, err = Run(ooc, q, o)
	if err != nil || !res.Degraded || res.QuarantinedBlocks != 1 {
		t.Errorf("degraded: res=%+v err=%v, want one quarantined block", res, err)
	}
	clean, err := Run(tab, q, base)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil && res.BlocksFetched != clean.BlocksFetched-1 {
		t.Errorf("degraded: fetched %d blocks, want %d (all but one)", res.BlocksFetched, clean.BlocksFetched-1)
	}
	requireNoPins(t, pool, "degraded")
	ooc.Store().SetFault(nil)
	if n := pool.ClearQuarantine(ooc.Store()); n != 1 {
		t.Errorf("%d blocks were quarantined, want exactly 1", n)
	}

	// A bounder that panics mid-scan.
	o = base
	o.Bounder = brittleBounder{Bounder: bernsteinRT(), n: 700}
	if p := runRecovered(func() { _, _ = Run(ooc, q, o) }); p != "synthetic bounder failure" {
		t.Errorf("panic: recovered %v, want the bounder's panic", p)
	}
	requireNoPins(t, pool, "panic")

	// After all that, the table still answers as the resident one does.
	outcome := func(tb *table.Table) string {
		o := fixedOpts()
		snaps := captureRounds(&o)
		res, err := Run(tb, q, o)
		if err != nil {
			t.Fatal(err)
		}
		return goldenOutcome(res, *snaps)
	}
	if want, got := outcome(tab), outcome(ooc); got != want {
		t.Errorf("after the failures, out-of-core differs from resident\nresident:    %s\nout-of-core: %s", want, got)
	}
	requireNoPins(t, pool, "at the end")
}

// TestOutOfCoreConcurrentExtents has several scans walk the same extents
// of one table at the same time, through a pool that keeps evicting:
// several engines pin one frame together and race to first-use its
// blocks (run with -race). Every outcome must equal the resident
// table's.
func TestOutOfCoreConcurrentExtents(t *testing.T) {
	tab := buildTestTable(t, 20_000, 13)
	ooc, pool := openOutOfCore(t, tab, 64<<10)
	qs := equivQueries()[:3]
	for i := range qs {
		qs[i].Stop = query.Exhaust()
	}
	outcome := func(tb *table.Table, q query.Query) string {
		o := fixedOpts()
		snaps := captureRounds(&o)
		res, err := Run(tb, q, o)
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			return ""
		}
		return goldenOutcome(res, *snaps)
	}
	const copies = 2 // scans of each query running at once
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = outcome(tab, q)
	}
	var wg sync.WaitGroup
	got := make([]string, len(qs)*copies)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = outcome(ooc, qs[i%len(qs)])
		}()
	}
	wg.Wait()
	for i := range got {
		if q := i % len(qs); got[i] != want[q] {
			t.Errorf("%s differs from resident under concurrency\nresident:    %s\nout-of-core: %s", qs[q].Name, want[q], got[i])
		}
	}
	requireNoPins(t, pool, "after the concurrent scans")
}
