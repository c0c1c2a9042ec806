package exec

import (
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

// TestWorkerPanicReachesCaller: a bounder that panics while a look
// closes the bounds of 4096 potential groups panics on the goroutine
// driving the engine, which is the goroutine that called Run, so the
// panic reaches the caller instead of killing the process, and the table
// keeps answering.
func TestWorkerPanicReachesCaller(t *testing.T) {
	tab := buildWideGroupTable(t, 20_000, 64)
	q := query.Query{Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}}, GroupBy: []string{"c1", "c2"}, Stop: query.Exhaust()}
	o := fixedOpts()
	o.Bounder = brittleBounder{Bounder: bernsteinRT(), n: 40}

	if p := runRecovered(func() { _, _ = Run(tab, q, o) }); p != "synthetic bounder failure" {
		t.Errorf("recovered %v, want the bounder's panic", p)
	}
	if _, err := Run(tab, q, fixedOpts()); err != nil {
		t.Errorf("query after the panic: %v", err)
	}
}
