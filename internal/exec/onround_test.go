package exec

import (
	"testing"

	"fastframe/internal/exact"
	"fastframe/internal/query"
)

func TestOnRoundSnapshots(t *testing.T) {
	tab := buildTestTable(t, 20000, 71)
	q := query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		GroupBy: []string{"airline"},
		Stop:    query.AbsWidth(2),
	}
	ex, _ := exact.Run(tab, q)

	var snaps []RoundSnapshot
	opts := testOpts(bernsteinRT())
	opts.OnRound = func(s RoundSnapshot) bool {
		snaps = append(snaps, s)
		return true
	}
	res, err := Run(tab, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Rounds {
		t.Fatalf("got %d snapshots, %d rounds", len(snaps), res.Rounds)
	}
	if res.Aborted {
		t.Error("Aborted set without an abort")
	}
	prevCovered := 0
	for i, s := range snaps {
		if s.Round != i+1 {
			t.Errorf("snapshot %d has round %d", i, s.Round)
		}
		if s.RowsCovered < prevCovered {
			t.Errorf("coverage went backwards at round %d", s.Round)
		}
		prevCovered = s.RowsCovered
		// Every snapshot's intervals must already be valid CIs.
		for _, g := range s.Groups {
			truth := ex.Group(g.Key)
			if truth == nil {
				continue
			}
			if !g.Aggs[0].Interval.Contains(truth.Stats[0]) {
				t.Errorf("round %d group %s: snapshot interval [%v,%v] misses %v",
					s.Round, g.Key, g.Aggs[0].Interval.Lo, g.Aggs[0].Interval.Hi, truth.Stats[0])
			}
		}
	}
	// Widths per group must be non-increasing across rounds (running
	// intersections).
	last := snaps[len(snaps)-1]
	first := snaps[0]
	for _, g := range last.Groups {
		if f := findGroup(first.Groups, g.Key); f != nil && g.Aggs[0].Interval.Width() > f.Aggs[0].Interval.Width()+1e-9 {
			t.Errorf("group %s widened: %v -> %v", g.Key, f.Aggs[0].Interval.Width(), g.Aggs[0].Interval.Width())
		}
	}
}

func findGroup(gs []GroupResult, key string) *GroupResult {
	for i := range gs {
		if gs[i].Key == key {
			return &gs[i]
		}
	}
	return nil
}

func TestOnRoundAbort(t *testing.T) {
	tab := buildTestTable(t, 20000, 72)
	q := query.Query{
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: "value"}},
		Stop: query.AbsWidth(1e-12), // unreachable: only the abort stops it
	}
	ex, _ := exact.Run(tab, q)
	calls := 0
	opts := testOpts(bernsteinRT())
	opts.OnRound = func(s RoundSnapshot) bool {
		calls++
		return calls < 3 // "I've seen enough" after round 3
	}
	res, err := Run(tab, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("Aborted not set")
	}
	if res.Rounds != 3 {
		t.Errorf("stopped after %d rounds, want 3", res.Rounds)
	}
	if res.Exhausted {
		t.Error("aborted run marked exhausted")
	}
	// The early intervals are still valid.
	if !res.Groups[0].Aggs[0].Interval.Contains(ex.Groups[0].Stats[0]) {
		t.Errorf("aborted interval misses truth")
	}
}
