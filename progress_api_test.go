package fastframe

import (
	"context"
	"testing"
)

func TestOnProgressPublicAPI(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").GroupBy("Airline").StopAtAbsError(2)
	var rounds int
	var lastWidth = 1e18
	opts := append(fastOpts(), WithProgress(func(p Progress) bool {
		rounds++
		if p.Round != rounds {
			t.Errorf("progress round %d, want %d", p.Round, rounds)
		}
		if len(p.Groups) > 0 {
			w := p.Groups[0].Answers[0].Width()
			if w > lastWidth+1e-9 {
				t.Errorf("interval widened across progress snapshots")
			}
			lastWidth = w
		}
		return true
	}))
	res, err := tab.Query(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || rounds != res.Rounds {
		t.Errorf("callback rounds %d, result rounds %d", rounds, res.Rounds)
	}
	if res.Aborted {
		t.Error("Aborted without abort")
	}
}

func TestOnProgressAbortPublicAPI(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").StopAtAbsError(1e-12)
	opts := append(fastOpts(), WithProgress(func(p Progress) bool { return p.Round < 2 }))
	res, err := tab.Query(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.Rounds != 2 {
		t.Errorf("Aborted=%v Rounds=%d, want abort at round 2", res.Aborted, res.Rounds)
	}
	ex, _ := tab.QueryExact(context.Background(), q)
	if !res.Groups[0].Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Error("aborted interval misses truth")
	}
}

func TestExactCountBoundsPublicOption(t *testing.T) {
	tab := smallFlights(t)
	q := Avg("DepDelay").Where("Origin", "ORD").StopAtRelError(0.4)
	opts := append(fastOpts(), WithExactCountBounds())
	res, err := tab.Query(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := tab.QueryExact(context.Background(), q)
	if !res.Groups[0].Answers[0].Contains(ex.Groups[0].Stats[0]) {
		t.Error("exact-count-bounds run misses truth")
	}
}
