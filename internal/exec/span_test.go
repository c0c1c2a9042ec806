package exec

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"fastframe/internal/core"
	"fastframe/internal/query"
	"fastframe/internal/scramble"
	"fastframe/internal/table"
	"fastframe/internal/testutil"
)

// walkSpans drives a fresh engine by hand and returns the (first block,
// length) of every span it takes.
func walkSpans(t *testing.T, tab *table.Table, q query.Query, o Options) (spans [][2]int, e *engine) {
	t.Helper()
	e = newTestEngine(t, tab, q, o)
	defer e.releaseViews()
	for !e.done {
		spans = append(spans, [2]int{e.cursor.Peek(), e.spanLen()})
		e.advance()
	}
	return spans, e
}

// TestSpanCuts checks the span against its definition on a walk that
// starts inside the last extent of a scramble whose last block is short:
// spans are runs of consecutive blocks inside one 64-block extent, never
// across the wrap-around, together they visit every block once in walk
// order, and they end exactly where a block-at-a-time walk would have
// closed each look and hit MaxRows. The cases take in a ramp whose first
// positions are zero (R = 10) or all inside the first block (R = 40), a
// row cap below R/16 (no look at all), and walks that end inside the
// ramp, after one look and before any.
func TestSpanCuts(t *testing.T) {
	tab := buildTestTable(t, 20_010, 5) // 801 blocks, the last of 10 rows
	layout := tab.Layout()
	nb := layout.NumBlocks()
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"airline"}, Stop: query.Exhaust()}
	for _, tc := range []struct{ start, roundRows, maxRows int }{
		{790, 1000, 0}, {790, 1010, 0}, {0, 40, 0}, {63, 10, 0}, {799, 3333, 0}, {5, 700, 5210}, {800, 1000, 20_010},
		{5, 1600, 60}, {790, 200_000, 0}, {790, 400_000, 0}, {3, 40_000, 2600},
	} {
		o := Options{Bounder: bernsteinRT(), Delta: 1e-9, RoundRows: tc.roundRows, StartBlock: tc.start, MaxRows: tc.maxRows}
		snaps := captureRounds(&o)
		spans, e := walkSpans(t, tab, q, o)

		// The reference: one block at a time.
		var wantCloses []int
		covered, looks, visited := 0, core.NewLooks(tc.roundRows), 0
		for ; visited < nb; visited++ {
			s, end := layout.BlockBounds((tc.start + visited) % nb)
			covered += end - s
			if covered >= looks.Next() {
				wantCloses = append(wantCloses, covered)
				looks.Close(covered, 1)
			}
			if tc.maxRows > 0 && covered >= tc.maxRows {
				visited++
				break
			}
		}
		var gotCloses []int
		for _, s := range *snaps {
			gotCloses = append(gotCloses, s.RowsCovered)
		}
		if !reflect.DeepEqual(gotCloses, wantCloses) {
			t.Errorf("%+v: looks closed at %v rows, a block-at-a-time walk closes them at %v", tc, gotCloses, wantCloses)
		}
		if e.looks.Closed() != len(wantCloses) {
			t.Errorf("%+v: %d looks closed, want %d", tc, e.looks.Closed(), len(wantCloses))
		}
		if e.totalCovered != covered {
			t.Errorf("%+v: covered %d rows, want %d", tc, e.totalCovered, covered)
		}

		next, total := tc.start, 0
		for _, sp := range spans {
			lo, n := sp[0], sp[1]
			if lo != next || n < 1 || lo/64 != (lo+n-1)/64 || lo+n > nb {
				t.Fatalf("%+v: span [%d,+%d) after block %d: not a run inside one extent of the walk", tc, lo, n, next)
			}
			next, total = (lo+n)%nb, total+n
		}
		if total != visited {
			t.Errorf("%+v: spans hold %d blocks, the walk visits %d", tc, total, visited)
		}
	}
}

// TestSpanOneBlockExtent: a block larger than an extent's worth of rows
// makes every span one block; the vector and the scalar kernel still
// agree byte for byte.
func TestSpanOneBlockExtent(t *testing.T) {
	tab := buildTestTableBlocks(t, 20_000, 9, 3000)
	for _, q := range equivQueries()[:4] {
		q.Stop = query.Exhaust()
		o := fixedOpts()
		o.StartBlock, o.RoundRows = 3, 4000
		spans, _ := walkSpans(t, tab, q, o)
		for _, sp := range spans {
			if sp[1] != 1 {
				t.Fatalf("%s: span of %d blocks at block %d, want 1", q.Name, sp[1], sp[0])
			}
		}
		want := runKernel(t, tab, q, o, true)
		if got := runKernel(t, tab, q, o, false); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: vector kernel differs from scalar", q.Name)
		}
	}
}

// TestSpanBufferPartition pins the selection vector's stable counting
// sort against a naive grouping: each touched group's rows in scan
// order, count zeroed for the next span, and sel itself returned, not
// copied, when the span touches one group — grouped or global.
func TestSpanBufferPartition(t *testing.T) {
	const groups, rows = 1000, 300
	rng := rand.New(rand.NewPCG(5, 5))
	a := &roundAccum{
		gids:    make([]int32, 0, rows),
		grouped: make([]int32, rows),
		count:   make([]int32, groups),
	}
	sel := make([]int32, rows)
	for _, distinct := range []int{1, 3, groups, 0} {
		global := distinct == 0
		a.gids = a.gids[:0]
		if global {
			a.gids = nil
		}
		want := map[int32][]int32{}
		for i := range sel {
			sel[i] = int32(3 * i) // a filtered selection: ascending, with gaps
			g := int32(0)
			if !global {
				g = int32(rng.IntN(distinct)) * int32(groups/distinct)
				a.gids = append(a.gids, g)
			}
			want[g] = append(want[g], sel[i])
		}
		got := a.partition(sel)
		if one := len(want) == 1; one != (&got[0] == &sel[0]) {
			t.Errorf("distinct=%d: partition returned sel itself = %v, want %v", distinct, !one, one)
		}
		if len(a.touched) != len(want) || len(a.starts) != len(want)+1 || int(a.starts[len(want)]) != rows {
			t.Fatalf("distinct=%d: touched %d groups with starts %v, want %d groups over %d rows", distinct, len(a.touched), a.starts, len(want), rows)
		}
		for i, g := range a.touched {
			if run := got[a.starts[i]:a.starts[i+1]]; !reflect.DeepEqual(run, want[g]) {
				t.Errorf("distinct=%d group %d: rows %v, want %v", distinct, g, run, want[g])
			}
		}
		for g, c := range a.count {
			if c != 0 {
				t.Fatalf("distinct=%d: count[%d] = %d after partition", distinct, g, c)
			}
		}
	}
	if got := a.partition(sel[:0]); len(got) != 0 || len(a.touched) != 0 {
		t.Errorf("an empty selection touched %v", a.touched)
	}
}

// buildWideGroupTable returns rows whose two categorical columns are
// perfectly correlated over k values: GROUP BY both spans k² potential
// groups, GROUP BY one spans k, and both see the same k groups.
func buildWideGroupTable(tb testing.TB, rows, k int) *table.Table {
	tb.Helper()
	testutil.GoroutineBaseline(tb)
	schema := table.MustSchema(
		table.ColumnSpec{Name: "value", Kind: table.Float},
		table.ColumnSpec{Name: "c1", Kind: table.Categorical},
		table.ColumnSpec{Name: "c2", Kind: table.Categorical},
	)
	rng := rand.New(rand.NewPCG(8, 8))
	b := table.NewBuilder(schema, 25)
	for i := 0; i < rows; i++ {
		c := fmt.Sprint(rng.IntN(k))
		err := b.Append(table.Row{
			Floats: map[string]float64{"value": rng.NormFloat64()},
			Cats:   map[string]string{"c1": c, "c2": c},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	tab, err := b.Build(rng)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// TestSpanFlushIndependentOfGroupSpace: a GROUP BY whose code space
// (102 400 potential groups) dwarfs the span (1 600 rows) flushes in
// time proportional to the rows buffered, not to the code space, and
// without allocating. The yardstick is the same scan grouped by one of
// the two columns: the same rows touch the same 320 groups out of 320.
func TestSpanFlushIndependentOfGroupSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	tab := buildWideGroupTable(t, 60_000, 320)
	engineFor := func(groupBy ...string) *engine {
		q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: groupBy, Stop: query.Exhaust()}
		e := newTestEngine(t, tab, q, Options{Bounder: bernsteinRT(), Delta: 1e-9, RoundRows: 1 << 30})
		t.Cleanup(e.releaseViews)
		return e
	}
	wide, narrow := engineFor("c1", "c2"), engineFor("c1")
	if len(wide.states) < 100_000 || len(narrow.states) != 320 {
		t.Fatalf("group spaces %d and %d, want ≥ 100000 and 320", len(wide.states), len(narrow.states))
	}
	perSpan := func(e *engine) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 15; rep++ {
			e.cursor = scramble.NewCursor(e.layout, 0) // walk the same 20 spans again
			t0 := time.Now()
			for i := 0; i < 20; i++ {
				e.advance()
			}
			best = min(best, time.Since(t0)/20)
		}
		return best
	}
	if allocs := testing.AllocsPerRun(20, func() { wide.advance() }); allocs != 0 {
		t.Errorf("a span over %d potential groups allocates %v times", len(wide.states), allocs)
	}
	w, n := perSpan(wide), perSpan(narrow)
	t.Logf("per span: %v over %d potential groups, %v over %d", w, len(wide.states), n, len(narrow.states))
	if float64(w) > 3*float64(n) {
		t.Errorf("a span costs %v over %d potential groups but %v over %d: the flush depends on the size of the group space", w, len(wide.states), n, len(narrow.states))
	}
}

// blockContainsGroup is the per-block, per-group probe the span mask is
// held to: a block can contain rows of a group when each group column's
// value appears in it.
func (g *grouper) blockContainsGroup(block int, codes []uint32) bool {
	for i, ix := range g.indexes {
		if !ix.BlockContains(block, codes[i]) {
			return false
		}
	}
	return true
}

// TestSpanMaskMatchesProbes: on random small tables — 1 to 3 GROUP BY
// columns with skewed dictionaries, block sizes that give extents of 64,
// 8 and 1 blocks, a block count that leaves the last bitmap word partial
// — and random active subsets, none and all included, every bit of the
// span mask says what probing the block for each active group says,
// wherever in its extent the span starts.
func TestSpanMaskMatchesProbes(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 3))
	for _, blockSize := range []int{25, 256, 1100} {
		for trial := 0; trial < 6; trial++ {
			groupBy := []string{"c0", "c1", "c2"}[:1+trial%3]
			specs := []table.ColumnSpec{{Name: "value", Kind: table.Float}}
			for _, c := range groupBy {
				specs = append(specs, table.ColumnSpec{Name: c, Kind: table.Categorical})
			}
			b := table.NewBuilder(table.MustSchema(specs...), blockSize)
			for i, rows := 0, blockSize*(65+rng.IntN(59))+1+rng.IntN(blockSize); i < rows; i++ {
				cats := map[string]string{}
				for _, c := range groupBy {
					// Value v is 1.6 times rarer than v−1: the last ones miss
					// most blocks, the first are in all of them.
					v := 0
					for v < 11 && rng.Float64() < 0.62 {
						v++
					}
					cats[c] = fmt.Sprint(v)
				}
				if err := b.Append(table.Row{Floats: map[string]float64{"value": 1}, Cats: cats}); err != nil {
					t.Fatal(err)
				}
			}
			tab, err := b.Build(rng)
			if err != nil {
				t.Fatal(err)
			}
			nb := tab.Layout().NumBlocks()
			if want := map[int]int{25: 64, 256: 8, 1100: 1}[blockSize]; tab.ExtentBlocks() != want || nb%64 == 0 {
				t.Fatalf("block size %d: extents of %d blocks, %d blocks in all; want %d and a partial last word", blockSize, tab.ExtentBlocks(), nb, want)
			}
			q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: groupBy, Stop: query.Exhaust()}
			e := newTestEngine(t, tab, q, Options{Bounder: bernsteinRT(), Strategy: Active})
			for _, share := range []float64{0, 0.02, 0.3, 0.9, 1} {
				e.numActive = 0
				for _, gs := range e.ordered {
					if gs.active = rng.Float64() < share; gs.active {
						e.numActive++
					}
				}
				skipped := 0
				for blk := 0; blk < nb; blk++ {
					want := false
					for _, gs := range e.ordered {
						if gs.active && e.grp.blockContainsGroup(blk, gs.codes) {
							want = true
							break
						}
					}
					if got := e.activeMask(blk)&(1<<(blk&63)) != 0; got != want {
						t.Fatalf("block size %d, GROUP BY %v, %d of %d groups active: mask says %v for block %d, the probes %v",
							blockSize, groupBy, e.numActive, len(e.ordered), got, blk, want)
					}
					if !want {
						skipped++
					}
				}
				if share == 0 && skipped != nb || share == 1 && skipped != 0 {
					t.Errorf("block size %d, GROUP BY %v, share %v: %d of %d blocks skipped", blockSize, groupBy, share, skipped, nb)
				}
			}
		}
	}
}
