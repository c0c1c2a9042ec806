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
// — stop rule, OnRound abort, exhaustion, MaxRows cap — through every
// driver (solo, lone shared, three-query cohort whose members detach at
// different blocks) and P ∈ {1, 4} over a table paged through a pool of
// a few extents, and through one too small for a single extent. The
// 800-block table is 12½ extents a column and scans start at block 13,
// mid-extent, so an exhaustive scan wraps around into the extent it
// started in. Every outcome — Result and Progress stream — must equal
// the resident table's, and no exit path may leave an extent pinned.
func TestOutOfCoreExitPaths(t *testing.T) {
	tab := buildTestTable(t, 20_000, 7)
	qs := kernelQueries()
	for _, budget := range []int64{96 << 10, 1 << 10} {
		ooc, pool := openOutOfCore(t, tab, budget)
		for qi, q := range qs {
			for _, st := range []Strategy{Scan, Active} {
				for _, m := range goldenModes() {
					name := fmt.Sprintf("budget=%d/%s/%s/%s", budget, q.Name, st, m.name)
					cohort := make([]query.Query, 3)
					for i := range cohort {
						cohort[i] = qs[(qi+i)%len(qs)]
						cohort[i].Stop = m.stop(cohort[i])
					}
					run := func(tb *table.Table) []string {
						o, snaps := goldenOpts(st, m)
						res, err := Run(tb, cohort[0], o)
						if err != nil {
							t.Fatalf("%s/solo: %v", name, err)
						}
						out := []string{goldenOutcome(res, *snaps)}
						o, snaps = goldenOpts(st, m)
						res, err = NewSharedDriver(tb).Run(context.Background(), cohort[0], o)
						if err != nil {
							t.Fatalf("%s/shared: %v", name, err)
						}
						out = append(out, goldenOutcome(res, *snaps))
						return append(out, goldenCohort(t, tb, cohort, st, m)...)
					}
					want, got := run(tab), run(ooc)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s run %d differs from resident\nresident:    %s\nout-of-core: %s", name, i, want[i], got[i])
						}
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
// degraded skip of that one block, and a bounder panic — solo and on
// the shared driver — each leaving nothing pinned.
func TestOutOfCoreAbortAndFailurePaths(t *testing.T) {
	tab := buildTestTable(t, 20_000, 11)
	ooc, pool := openOutOfCore(t, tab, 96<<10)
	q := equivQueries()[1] // grouped SUM over every block
	q.Stop = query.Exhaust()
	drivers := []struct {
		name string
		run  func(context.Context, *table.Table, Options) (*Result, error)
	}{
		{"solo", func(ctx context.Context, tb *table.Table, o Options) (*Result, error) {
			return RunContext(ctx, tb, q, o)
		}},
		{"shared", func(ctx context.Context, tb *table.Table, o Options) (*Result, error) {
			return NewSharedDriver(tb).Run(ctx, q, o)
		}},
	}
	valueCol := ooc.Schema().Lookup("value")
	// Inside extent 6 (blocks 384..447), which no run below leaves cached
	// for the next: a cached block is not read, so cannot fail.
	const badBlock = 400
	for _, d := range drivers {
		base := sharedOpts()

		// Context cancelled from inside round 2.
		ctx, cancel := context.WithCancel(context.Background())
		o := base
		o.OnRound = func(s RoundSnapshot) bool {
			if s.Round == 2 {
				cancel()
			}
			return true
		}
		res, err := d.run(ctx, ooc, o)
		cancel()
		if err != nil || !res.Aborted || res.Rounds != 2 {
			t.Errorf("%s/cancel: res=%+v err=%v, want an abort at round 2", d.name, res, err)
		}
		requireNoPins(t, pool, d.name+"/cancel")

		// One permanently failing block: the default mode surfaces it …
		ooc.Store().SetFault(func(col, block, attempt int) error {
			if col == valueCol && block == badBlock {
				return errors.New("injected permanent fault")
			}
			return nil
		})
		_, err = d.run(context.Background(), ooc, base)
		var be *blockstore.BlockError
		if !errors.As(err, &be) || be.Col != valueCol || be.Block != badBlock {
			t.Errorf("%s/ioErr: err=%v, want a BlockError at col %d block %d", d.name, err, valueCol, badBlock)
		}
		requireNoPins(t, pool, d.name+"/ioErr")

		// … and degraded reads skip exactly that block: its rows, and no
		// neighbour's in the same extent, stay unobserved.
		o = base
		o.DegradedReads = true
		res, err = d.run(context.Background(), ooc, o)
		if err != nil || !res.Degraded || res.QuarantinedBlocks != 1 {
			t.Errorf("%s/degraded: res=%+v err=%v, want one quarantined block", d.name, res, err)
		}
		clean, err := d.run(context.Background(), tab, base)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil && res.BlocksFetched != clean.BlocksFetched-1 {
			t.Errorf("%s/degraded: fetched %d blocks, want %d (all but one)", d.name, res.BlocksFetched, clean.BlocksFetched-1)
		}
		requireNoPins(t, pool, d.name+"/degraded")
		ooc.Store().SetFault(nil)
		if n := pool.ClearQuarantine(ooc.Store()); n != 1 {
			t.Errorf("%s: %d blocks were quarantined, want exactly 1", d.name, n)
		}

		// A bounder that panics mid-scan, wherever its observations run.
		o = base
		o.Bounder = brittleBounder{Bounder: bernsteinRT(), n: 700}
		if p := runRecovered(func() { _, _ = d.run(context.Background(), ooc, o) }); p != "synthetic bounder failure" {
			t.Errorf("%s/panic: recovered %v, want the bounder's panic", d.name, p)
		}
		requireNoPins(t, pool, d.name+"/panic")
	}

	// After all that, the table still answers as the resident one does.
	outcome := func(tb *table.Table) string {
		o := sharedOpts()
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

// TestOutOfCoreConcurrentExtents has solo scans and a shared cohort
// walk the same extents of one table at the same time, through a pool
// that keeps evicting: several engines pin one frame
// together and race to first-use its blocks (run with -race). Every
// outcome must equal the resident table's.
func TestOutOfCoreConcurrentExtents(t *testing.T) {
	tab := buildTestTable(t, 20_000, 13)
	ooc, pool := openOutOfCore(t, tab, 64<<10)
	qs := equivQueries()[:3]
	for i := range qs {
		qs[i].Stop = query.Exhaust()
	}
	outcome := func(tb *table.Table, d *SharedDriver, q query.Query) string {
		o := sharedOpts()
		snaps := captureRounds(&o)
		var res *Result
		var err error
		if d != nil {
			res, err = d.Run(context.Background(), q, o)
		} else {
			res, err = Run(tb, q, o)
		}
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			return ""
		}
		// A cohort member's start block depends on when it was admitted;
		// everything else about its answer is checked by the shared-scan
		// suites. Here the solo outcomes carry the byte-identity check.
		if d != nil {
			return ""
		}
		return goldenOutcome(res, *snaps)
	}
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = outcome(tab, nil, q)
	}
	d := NewSharedDriver(ooc)
	var wg sync.WaitGroup
	got := make([]string, len(qs))
	for i, q := range qs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i] = outcome(ooc, nil, q)
		}()
		go func() {
			defer wg.Done()
			outcome(ooc, d, q)
		}()
	}
	wg.Wait()
	for i := range qs {
		if got[i] != want[i] {
			t.Errorf("%s differs from resident under concurrency\nresident:    %s\nout-of-core: %s", qs[i].Name, want[i], got[i])
		}
	}
	requireNoPins(t, pool, "after the concurrent scans")
}
