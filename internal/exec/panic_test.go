package exec

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fastframe/internal/ci"
	"fastframe/internal/query"
)

// runRecovered calls run and returns what it panicked with (nil if it
// returned).
func runRecovered(run func()) (panicked any) {
	defer func() { panicked = recover() }()
	run()
	return nil
}

// TestSharedPanicIsolation is the cohort-isolation property: one query
// whose OnRound callback panics on the shared driver's goroutine
// detaches alone and gets the panic back on the goroutine that called
// Run; the two queries sharing its scan still byte-match solo replays
// from their admission blocks, and the driver keeps serving.
func TestSharedPanicIsolation(t *testing.T) {
	tab := buildTestTable(t, 30_000, 43)
	d := NewSharedDriver(tab)
	qs := equivQueries()[:3]

	type outcome struct {
		res      *Result
		snaps    []RoundSnapshot
		err      error
		panicked any
	}
	out := make([]outcome, len(qs))
	var wg sync.WaitGroup
	launch := func(i int, o Options, snaps *[]RoundSnapshot) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].panicked = runRecovered(func() {
				out[i].res, out[i].err = d.Run(context.Background(), qs[i], o)
			})
			out[i].snaps = *snaps
		}()
	}
	// Query 0 holds its first round barrier open until the other two are
	// pending (so all three share the scan), then panics at round 3.
	o0 := sharedOpts()
	snaps0 := captureRounds(&o0)
	inner := o0.OnRound
	o0.OnRound = func(s RoundSnapshot) bool {
		inner(s)
		switch s.Round {
		case 1:
			for i := 1; i < len(qs); i++ {
				o := sharedOpts()
				launch(i, o, captureRounds(&o))
			}
			d.waitPending(t, len(qs)-1)
		case 3:
			panic("synthetic OnRound failure")
		}
		return true
	}
	qs[0].Stop = query.Exhaust()
	launch(0, o0, snaps0)
	wg.Wait()

	if out[0].panicked != "synthetic OnRound failure" || out[0].res != nil {
		t.Fatalf("panicking query: recovered %v, result %+v; want the panic re-raised on Run's caller", out[0].panicked, out[0].res)
	}
	for i := 1; i < len(qs); i++ {
		if out[i].panicked != nil || out[i].err != nil {
			t.Fatalf("%s: disturbed by its neighbour's panic: panic=%v err=%v", qs[i].Name, out[i].panicked, out[i].err)
		}
		res, snaps := replaySolo(t, tab, qs[i], sharedOpts(), out[i].res.StartBlock)
		if !reflect.DeepEqual(stripDuration(res), stripDuration(out[i].res)) {
			t.Errorf("%s: differs from solo replay at block %d\nsolo:   %+v\nshared: %+v", qs[i].Name, out[i].res.StartBlock, res, out[i].res)
		}
		if !reflect.DeepEqual(snaps, out[i].snaps) {
			t.Errorf("%s: progress stream differs from solo replay (%d vs %d rounds)", qs[i].Name, len(snaps), len(out[i].snaps))
		}
	}

	// The same driver still serves.
	later, err := d.Run(context.Background(), qs[1], sharedOpts())
	if err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
	solo, _ := replaySolo(t, tab, qs[1], sharedOpts(), later.StartBlock)
	if !reflect.DeepEqual(stripDuration(solo), stripDuration(later)) {
		t.Errorf("query after the panic differs from solo")
	}
	if st := d.Stats(); st.QueriesServed != 4 {
		t.Errorf("QueriesServed = %d, want 4 (the panicked query counts as served)", st.QueriesServed)
	}
}

// brittleBounder's states panic when asked for a bound once they hold n
// values: a failure that fires on whichever goroutine is closing the look.
type brittleBounder struct {
	ci.Bounder
	n int
}

type brittleState struct {
	ci.State
	n int
}

func (b brittleBounder) NewState() ci.State {
	return &brittleState{State: b.Bounder.NewState(), n: b.n}
}

func (s *brittleState) Lower(p ci.Params) float64 {
	if s.Count() >= s.n {
		panic("synthetic bounder failure")
	}
	return s.State.Lower(p)
}

// TestWorkerPanicReachesCaller pins the other half: a bounder that
// panics while a look closes the bounds of 4096 potential groups panics
// on the goroutine driving the engine, so the panic reaches the
// goroutine that called Run (solo) or the query's own Run (shared, where
// the look closes on the driver goroutine) instead of killing the
// process.
func TestWorkerPanicReachesCaller(t *testing.T) {
	tab := buildWideGroupTable(t, 20_000, 64)
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"c1", "c2"}, Stop: query.Exhaust()}
	o := sharedOpts()
	o.Bounder = brittleBounder{Bounder: bernsteinRT(), n: 40}

	if p := runRecovered(func() { _, _ = Run(tab, q, o) }); p != "synthetic bounder failure" {
		t.Errorf("solo: recovered %v, want the bounder's panic", p)
	}
	d := NewSharedDriver(tab)
	if p := runRecovered(func() { _, _ = d.Run(context.Background(), q, o) }); p != "synthetic bounder failure" {
		t.Errorf("shared: recovered %v, want the stepped query's panic", p)
	}
	if _, err := d.Run(context.Background(), q, sharedOpts()); err != nil {
		t.Errorf("query after the panic: %v", err)
	}
}
