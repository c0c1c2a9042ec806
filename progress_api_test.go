package fastframe

import (
	"context"
	"reflect"
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

// TestLookScheduleThroughTheAPI: what the look schedule promises a user.
// The first interval arrives within R/16 rows and a block, looks are
// numbered 1, 2, 3 … over strictly growing coverage, the drained cursor's
// Final is the one-shot Query's result, and a statement that runs past
// one full round stops where it stopped when a look was only taken every
// R rows (the three pins are that schedule's RowsCovered / BlocksFetched /
// Rounds at the commit before the ramp; each now closes four looks more).
func TestLookScheduleThroughTheAPI(t *testing.T) {
	tab := smallFlights(t)
	ctx := context.Background()
	const roundRows, blockRows = 2000, 25
	for _, tc := range []struct {
		name                 string
		q                    QueryBuilder
		rows, blocks, rounds int // on the fixed schedule
	}{
		{"count-where-rel", CountRows().WhereGreater("DepTime", 1200).StopAtRelError(0.05), 14_000, 560, 7},
		{"avg-abs5", Avg("DepDelay").StopAtAbsError(5), 42_000, 1680, 21},
		{"avg-abs8", Avg("DepDelay").StopAtAbsError(8), 26_000, 1040, 13},
	} {
		opts := append(fastOpts(), WithSeed(3))
		rows, err := tab.Stream(ctx, tc.q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var prev Progress
		for p := range rows.Rounds() {
			if p.Round == 1 && p.RowsCovered > roundRows/16+blockRows {
				t.Errorf("%s: first interval after %d rows, want within %d", tc.name, p.RowsCovered, roundRows/16+blockRows)
			}
			if p.Round != prev.Round+1 || p.RowsCovered <= prev.RowsCovered {
				t.Errorf("%s: look %d at %d rows follows look %d at %d", tc.name, p.Round, p.RowsCovered, prev.Round, prev.RowsCovered)
			}
			prev = p
		}
		final, err := rows.Final()
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
		res, err := tab.Query(ctx, tc.q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		final.Duration, res.Duration = 0, 0
		if !reflect.DeepEqual(final, res) {
			t.Errorf("%s: Final() differs from the one-shot result\nfinal: %+v\nquery: %+v", tc.name, final, res)
		}
		if !res.Stopped || res.RowsCovered != tc.rows || res.BlocksFetched != tc.blocks || res.Rounds != tc.rounds+4 || prev.Round != res.Rounds {
			t.Errorf("%s: stopped=%v after %d rows, %d blocks, %d looks (last streamed: %d); the fixed schedule stopped after %d, %d, %d rounds",
				tc.name, res.Stopped, res.RowsCovered, res.BlocksFetched, res.Rounds, prev.Round, tc.rows, tc.blocks, tc.rounds)
		}
	}
}
