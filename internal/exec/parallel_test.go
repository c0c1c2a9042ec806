package exec

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fastframe/internal/query"
	"fastframe/internal/scramble"
)

// equivQueries is the table of query shapes the equivalence property is
// checked over: every aggregate kind, grouped and ungrouped views,
// predicates, expression aggregates, and every stopping family.
func equivQueries() []query.Query {
	return []query.Query{
		{
			Name: "avg-ungrouped-relwidth",
			Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Stop: query.RelWidth(0.05),
		},
		{
			Name:    "sum-grouped-threshold",
			Aggs:    []query.Aggregate{{Kind: query.Sum, Column: "value"}},
			GroupBy: []string{"airline"},
			Stop:    query.Threshold(1000),
		},
		{
			Name: "count-pred-abswidth",
			Aggs: []query.Aggregate{{Kind: query.Count}},
			Pred: query.Predicate{}.AndGreater("time", 1200),
			Stop: query.AbsWidth(2000),
		},
		{
			Name:    "avg-grouped-pred-topk",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred:    query.Predicate{}.AndCatIn("origin", "O0", "O2", "O4"),
			GroupBy: []string{"airline"},
			Stop:    query.TopK(2),
		},
		{
			Name:    "avg-two-group-exhaust",
			Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			GroupBy: []string{"airline", "origin"},
			Stop:    query.Exhaust(),
		},
		{
			Name: "avg-fixed-samples",
			Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
			Pred: query.Predicate{}.AndCatEquals("airline", "CC"),
			Stop: query.FixedSamples(2000),
		},
	}
}

// stripDuration zeroes the wall-clock field so Results can be compared
// byte for byte.
func stripDuration(r *Result) *Result {
	r.Duration = 0
	return r
}

// TestParallelContextCancel: the look close above minParallelCloseGroups
// is the one thing a query starts goroutines for, and they are joined
// before the look's OnRound runs — so a context cancelled there ends the
// scan via the abort path at that look, the partial result well-formed,
// with no goroutine left behind (buildWideGroupTable's baseline check).
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
		Bounder:     bernsteinRT(),
		Delta:       1e-9,
		RoundRows:   1000,
		Parallelism: 4,
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

// TestSoloScanStartsNoGoroutine: below minParallelCloseGroups potential
// groups a solo run does everything — scan, active-scan mask, look close —
// on the goroutine that called Run, whatever Parallelism says: at every
// look the goroutine count is what it was before the run.
func TestSoloScanStartsNoGoroutine(t *testing.T) {
	tab := buildWideGroupTable(t, 30_000, 200)
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"c1"}, // 200 groups of ≈ 150 rows, ≈ 23 of them in a block
		Stop:    query.FixedSamples(100),
	}
	baseline, looks := runtime.NumGoroutine(), 0
	opts := Options{
		Bounder:     bernsteinRT(),
		Strategy:    Active,
		Delta:       1e-9,
		RoundRows:   1000,
		Parallelism: 8,
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
	if skipped := res.RowsCovered - 25*res.BlocksFetched; looks < 5 || skipped <= 0 {
		t.Errorf("%d looks, %d rows skipped: want a run that deactivates groups and skips blocks", looks, skipped)
	}
}

// TestSpanBufferPartition pins the span buffer's stable counting sort
// against a naive grouping, and that it leaves count zeroed for the
// next span.
func TestSpanBufferPartition(t *testing.T) {
	const groups, rows = 1000, 300
	rng := rand.New(rand.NewPCG(5, 5))
	a := &roundAccum{
		vals:   [][]float64{nil, nil},
		sorted: [][]float64{make([]float64, rows), make([]float64, rows)},
		gids:   make([]int32, 0, rows),
		dest:   make([]int32, rows),
		count:  make([]int32, groups),
	}
	for _, distinct := range []int{1, 3, groups} {
		a.reset()
		want := map[int32][]float64{}
		for i := 0; i < rows; i++ {
			g := int32(rng.IntN(distinct)) * int32(groups/distinct)
			a.gids = append(a.gids, g)
			a.vals[0] = append(a.vals[0], float64(i))
			a.vals[1] = append(a.vals[1], -float64(i))
			want[g] = append(want[g], float64(i))
		}
		a.partition()
		if len(a.touched) != len(want) {
			t.Fatalf("distinct=%d: %d groups touched, want %d", distinct, len(a.touched), len(want))
		}
		for i, g := range a.touched {
			got := a.out[0][a.starts[i]:a.starts[i+1]]
			if !reflect.DeepEqual(got, want[g]) {
				t.Errorf("distinct=%d group %d: rows %v, want %v", distinct, g, got, want[g])
			}
			for j, v := range a.out[1][a.starts[i]:a.starts[i+1]] {
				if v != -got[j] {
					t.Errorf("distinct=%d group %d: second input out of step at %d", distinct, g, j)
				}
			}
		}
		for g, c := range a.count {
			if c != 0 {
				t.Fatalf("distinct=%d: count[%d] = %d after partition", distinct, g, c)
			}
		}
	}
}

// BenchmarkCloseGroups measures what minParallelCloseGroups stands for:
// one look's bound recomputation over n half-scanned groups (AVG under
// Bernstein + RangeTrim, the default and the cheapest close per group, so
// the break-even it finds is the lowest any statement has), on the
// engine's goroutine against split in two through fanOut. Between looks
// a second engine scans 20 spans single-threaded, as a statement does
// between its looks, so the second processor is parked when fanOut wants
// it — in a back-to-back loop it would still be spinning and the wake-up
// the fan-out really pays would not show. close-ns/op times the close
// alone. The exactN axis closes with ExactCountBounds, the hypergeometric
// N⁺ of §4.1, whose per-group cost is far above Lemma 5's.
func BenchmarkCloseGroups(b *testing.B) {
	for _, n := range []int{2, 420, 2048, 4096, 8192, 32768} {
		tab := buildWideGroupTable(b, max(40*n, 100_000), n)
		engineFor := func(exactN bool, groupBy ...string) *engine {
			q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: groupBy, Stop: query.Exhaust()}
			e, err := prepare(context.Background(), tab, q, Options{Bounder: bernsteinRT(), Delta: 0.01, RoundRows: 1 << 40, ExactCountBounds: exactN})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.releaseViews)
			return e
		}
		scanner := engineFor(false)
		for _, exactN := range []bool{false, true} {
			closer := engineFor(exactN, "c1")
			for closer.totalCovered < tab.NumRows()/2 {
				closer.advance(closer.spanLen())
			}
			for _, mode := range []string{"serial", "fanout2"} {
				b.Run(fmt.Sprintf("groups=%d/exactN=%v/%s", n, exactN, mode), func(b *testing.B) {
					var closing time.Duration
					for i := 0; i < b.N; i++ {
						for s := 0; s < 20; s++ {
							if scanner.cursor.Remaining() <= 64 {
								scanner.cursor = scramble.NewCursor(scanner.layout, 0)
							}
							scanner.advance(scanner.spanLen())
						}
						t0 := time.Now()
						if mode == "serial" {
							closer.closeSegment(closer.ordered, 1e-4)
						} else {
							fanOut(2, func(i int) { closer.closeSegment(closer.ordered[i*n/2:(i+1)*n/2], 1e-4) })
						}
						closing += time.Since(t0)
					}
					b.ReportMetric(float64(closing)/float64(b.N), "close-ns/op")
				})
			}
		}
	}
}

// TestParallelCloseEquivalence: from minParallelCloseGroups potential
// groups up a look's bounds are recomputed on several goroutines; results
// and progress streams stay byte-identical to one worker's.
func TestParallelCloseEquivalence(t *testing.T) {
	tab := buildWideGroupTable(t, 20_000, 64)
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"c1", "c2"}, Stop: query.Exhaust()}
	run := func(par int) (*Result, []RoundSnapshot) {
		o := Options{Bounder: bernsteinRT(), Delta: 1e-9, RoundRows: 4000, StartBlock: 7, Parallelism: par}
		snaps := captureRounds(&o)
		e, err := prepare(context.Background(), tab, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.ordered) < minParallelCloseGroups {
			t.Fatalf("%d potential groups, want ≥ %d", len(e.ordered), minParallelCloseGroups)
		}
		e.drive()
		return stripDuration(e.result()), *snaps
	}
	want, wantSnaps := run(1)
	got, gotSnaps := run(4)
	if len(wantSnaps) != 4+5 || !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantSnaps, gotSnaps) {
		t.Errorf("P=4 differs from P=1 over %d looks", len(wantSnaps))
	}
}
