package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastframe/internal/ci"
	"fastframe/internal/query"
	"fastframe/internal/scramble"
)

// TestParallelContextCancel: a context cancelled at a look of a
// 4096-group scan, the widest close any test runs, ends the scan via the
// abort path at that look, the partial result well-formed, with no
// goroutine left behind (buildWideGroupTable's baseline check).
func TestParallelContextCancel(t *testing.T) {
	tab := buildWideGroupTable(t, 20_000, 64)
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"c1", "c2"}, // 4096 potential groups
		Stop:    query.Exhaust(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	opts := Options{
		Bounder:   bernsteinRT(),
		Delta:     1e-9,
		RoundRows: 1000,
		OnRound: func(s RoundSnapshot) bool {
			rounds = s.Round
			if s.Round == 2 {
				cancel()
			}
			return true
		},
	}
	res, err := RunContext(ctx, tab, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("cancelled scan not marked aborted")
	}
	if rounds != res.Rounds || res.Rounds != 2 {
		t.Errorf("scan ran %d rounds after cancellation at round 2", res.Rounds)
	}
	if len(res.Groups) == 0 || res.Groups[0].Samples == 0 {
		t.Errorf("partial result malformed: %+v", res.Groups)
	}
}

// strayBounder's states count, in stray, the bounds asked for while the
// process runs a goroutine count other than baseline: a look closed on
// any goroutine but the one driving the engine.
type strayBounder struct {
	ci.Bounder
	baseline     int
	calls, stray *atomic.Int64
}

type strayState struct {
	ci.State
	b strayBounder
}

func (b strayBounder) NewState() ci.State {
	return &strayState{State: b.Bounder.NewState(), b: b}
}

func (s *strayState) Lower(p ci.Params) float64 {
	s.b.calls.Add(1)
	if runtime.NumGoroutine() != s.b.baseline {
		s.b.stray.Add(1)
	}
	return s.State.Lower(p)
}

// TestSoloScanStartsNoGoroutine: a solo run does everything — scan,
// active-scan mask, look close — on the goroutine that called Run. At
// every look, and at every bound a look asks for, the goroutine count is
// what it was before the run: with 200 groups, and with 4096 potential
// groups, where the look close was once split across goroutines.
func TestSoloScanStartsNoGoroutine(t *testing.T) {
	cases := []struct {
		name          string
		rows, k       int
		groupBy       []string
		stop          query.Stop
		roundRows     int
		wantSkip      bool
		minBoundCalls int64
	}{
		// 200 groups of ≈ 150 rows, ≈ 23 of them in a block: groups
		// deactivate and the active scan skips blocks.
		{"groups=200", 30_000, 200, []string{"c1"}, query.FixedSamples(100), 1000, true, 200},
		{"groups=4096", 20_000, 64, []string{"c1", "c2"}, query.Exhaust(), 4000, false, 4096},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := buildWideGroupTable(t, tc.rows, tc.k)
			q := query.Query{
				Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
				GroupBy: tc.groupBy,
				Stop:    tc.stop,
			}
			baseline, looks := runtime.NumGoroutine(), 0
			b := strayBounder{Bounder: bernsteinRT(), baseline: baseline, calls: new(atomic.Int64), stray: new(atomic.Int64)}
			opts := Options{
				Bounder:   b,
				Strategy:  Active,
				Delta:     1e-9,
				RoundRows: tc.roundRows,
				OnRound: func(s RoundSnapshot) bool {
					looks++
					if n := runtime.NumGoroutine(); n != baseline {
						t.Errorf("look %d: %d goroutines, %d before the run", s.Round, n, baseline)
					}
					return true
				},
			}
			res, err := Run(tab, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := b.stray.Load(); n != 0 {
				t.Errorf("%d of %d bounds computed while the goroutine count was not %d", n, b.calls.Load(), baseline)
			}
			if n := b.calls.Load(); n < tc.minBoundCalls {
				t.Errorf("%d bounds computed over %d looks, want ≥ %d", n, looks, tc.minBoundCalls)
			}
			skipped := res.RowsCovered - 25*res.BlocksFetched
			if looks < 5 || tc.wantSkip && skipped <= 0 {
				t.Errorf("%d looks, %d rows skipped: want a run that deactivates groups and skips blocks", looks, skipped)
			}
		})
	}
}

// BenchmarkCloseGroups measures one look's bound recomputation over n
// half-scanned groups (AVG under Bernstein + RangeTrim, the default and
// the cheapest close per group). Between looks a second engine scans 20
// spans, as a statement does between its looks, so the close meets the
// caches a statement leaves it. close-ns/op times the close alone.
func BenchmarkCloseGroups(b *testing.B) {
	for _, n := range []int{2, 420, 2048, 4096, 8192, 32768} {
		tab := buildWideGroupTable(b, max(40*n, 100_000), n)
		engineFor := func(groupBy ...string) *engine {
			q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: groupBy, Stop: query.Exhaust()}
			e := newTestEngine(b, tab, q, Options{Bounder: bernsteinRT(), Delta: 0.01, RoundRows: 1 << 40})
			b.Cleanup(e.releaseViews)
			return e
		}
		scanner, closer := engineFor(), engineFor("c1")
		for closer.totalCovered < tab.NumRows()/2 {
			closer.advance()
		}
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			var closing time.Duration
			for i := 0; i < b.N; i++ {
				for s := 0; s < 20; s++ {
					if scanner.cursor.Remaining() <= 64 {
						scanner.cursor = scramble.NewCursor(scanner.layout, 0)
					}
					scanner.advance()
				}
				t0 := time.Now()
				closer.closeGroups(1e-4)
				closing += time.Since(t0)
			}
			b.ReportMetric(float64(closing)/float64(b.N), "close-ns/op")
		})
	}
}
