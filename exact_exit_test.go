package fastframe

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fastframe/internal/blockstore"
	"fastframe/internal/testutil"
)

// lookCtx is a context cancelled the n-th time its Done channel is asked
// for. An exact run asks once per look (and reads Err once before it
// scans, which does not count), so n names the look it is cancelled at
// and looks counts the looks it reached.
type lookCtx struct {
	context.Context
	cancelAt, looks int
	done            chan struct{}
}

func newLookCtx(cancelAt int) *lookCtx {
	return &lookCtx{Context: context.Background(), cancelAt: cancelAt, done: make(chan struct{})}
}

func (c *lookCtx) Done() <-chan struct{} {
	if c.looks++; c.looks == c.cancelAt {
		close(c.done)
	}
	return c.done
}

func (c *lookCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// manyGroupsTable has three categorical columns of 1 300 values each:
// 1 300³ ≈ 2.2·10⁹ potential groups, more than 2³¹.
func manyGroupsTable(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTableBuilder(Column{"v", Float}, Column{"a", Categorical}, Column{"b", Categorical}, Column{"c", Categorical})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1300; i++ {
		s := fmt.Sprint(i)
		if err := tb.AppendRow(map[string]float64{"v": float64(i)}, map[string]string{"a": s, "b": s, "c": s}); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestQueryExactExitPaths: whichever way an exact run ends — answered,
// cancelled at any of its five looks, failed on an unreadable block,
// refused for its group space — it returns an answer or an error, never
// both and never a partial answer, and leaves no extent pinned and no
// goroutine behind. Resident, and out of core through a pool that evicts
// constantly.
func TestQueryExactExitPaths(t *testing.T) {
	flights, wide := smallFlights(t), manyGroupsTable(t)
	byAirline := Select(Avg("DepDelay"), Median("DepDelay")).GroupBy("Airline")
	type check func(t *testing.T, tab *Table, res *ExactResult, err error, looks int)
	// Cancelled at look k, the run ends at look k: it neither scans on to
	// a later one nor hands back what it has.
	cancelled := func(k int) check {
		return func(t *testing.T, _ *Table, res *ExactResult, err error, looks int) {
			if res != nil || !errors.Is(err, context.Canceled) || looks != k {
				t.Fatalf("got %v, %v after %d looks; want context.Canceled at look %d", res, err, looks, k)
			}
		}
	}
	cases := []struct {
		name     string
		tab      *Table
		q        QueryBuilder
		cancelAt int  // the look to cancel at; 0 for never, -1 for before the scan
		fault    bool // out of core only: DepDelay unreadable past the first half
		check    check
	}{
		{name: "answered", tab: flights, q: byAirline,
			check: func(t *testing.T, _ *Table, res *ExactResult, err error, looks int) {
				if err != nil || len(res.Groups) != 10 || looks != 5 {
					t.Fatalf("got %v, %v after %d looks; want ten airlines after 5", res, err, looks)
				}
			}},
		{name: "cancelled before the scan", tab: flights, q: byAirline, cancelAt: -1, check: cancelled(0)},
		{name: "cancelled at look 1", tab: flights, q: byAirline, cancelAt: 1, check: cancelled(1)},
		{name: "cancelled at look 3", tab: flights, q: byAirline, cancelAt: 3, check: cancelled(3)},
		{name: "cancelled at the last look", tab: flights, q: byAirline, cancelAt: 5, check: cancelled(5)},
		{name: "unreadable block", tab: flights, q: byAirline, fault: true,
			check: func(t *testing.T, _ *Table, res *ExactResult, err error, _ int) {
				var be *blockstore.BlockError
				if res != nil || !errors.As(err, &be) {
					t.Fatalf("got %v, %v; want a *blockstore.BlockError and no answer", res, err)
				}
			}},
		{name: "more than 2^31 potential groups", tab: wide, q: CountRows().GroupBy("a", "b", "c"),
			check: func(t *testing.T, tab *Table, res *ExactResult, err error, _ int) {
				_, approxErr := tab.Query(context.Background(), CountRows().GroupBy("a", "b", "c"))
				if res != nil || err == nil || approxErr == nil || err.Error() != approxErr.Error() {
					t.Fatalf("got %v, %v; want the approximate run's error, %v", res, err, approxErr)
				}
			}},
	}
	for _, c := range cases {
		for _, ooc := range []bool{false, true} {
			if c.fault && !ooc {
				continue // a resident table has no storage to fail
			}
			name := c.name + "/resident"
			if ooc {
				name = c.name + "/out-of-core"
			}
			t.Run(name, func(t *testing.T) {
				// Once the table and its pool are closed, the goroutine count is
				// back at its baseline.
				testutil.GoroutineBaseline(t)
				tab := c.tab
				if ooc {
					pool := NewBufferPool(1 << 14)
					silentRetries(pool)
					var err error
					if tab, err = OpenTable(writeTempTable(t, c.tab), pool); err != nil {
						t.Fatal(err)
					}
					defer closeOutOfCore(t, tab, pool) // PinnedFrames == 0
				}
				if c.fault {
					depDelay := colIndex(t, c.tab, "DepDelay")
					tab.InjectStorageFault(func(col, block, attempt int) error {
						if col == depDelay && block >= c.tab.NumBlocks()/2 {
							return errors.New("injected permanent fault")
						}
						return nil
					})
				}
				ctx := newLookCtx(c.cancelAt)
				if c.cancelAt < 0 {
					close(ctx.done)
				}
				res, err := tab.QueryExact(ctx, c.q)
				c.check(t, tab, res, err, ctx.looks)
			})
		}
	}
}
