package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFQuantile(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{10, 20, 30, 40, 50})
	cases := []struct {
		q    float64
		want float64
	}{
		{-1, 10}, {0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {1, 50}, {2, 50},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestECDFMeanBelowRank(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{5, 1, 3}) // sorted: 1 3 5
	if got := e.MeanBelowRank(1); got != 1 {
		t.Errorf("MeanBelowRank(1) = %v, want 1", got)
	}
	if got := e.MeanBelowRank(2); got != 2 {
		t.Errorf("MeanBelowRank(2) = %v, want 2", got)
	}
	if got := e.MeanBelowRank(3); got != 3 {
		t.Errorf("MeanBelowRank(3) = %v, want 3", got)
	}
}

func TestECDFMeanBelowRankPanics(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{1})
	for _, k := range []int{0, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MeanBelowRank(%d) did not panic", k)
				}
			}()
			e.MeanBelowRank(k)
		}()
	}
}

func TestECDFInterleavedAddAndQuery(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{2})
	if got := e.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	e.AddAll([]float64{1}) // must re-sort lazily
	if got := e.Quantile(0.5); got != 1 {
		t.Fatalf("after a second AddAll, Quantile(0.5) = %v, want 1", got)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var e ECDF
	for i := 0; i < 500; i++ {
		e.AddAll([]float64{rng.NormFloat64()})
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := e.Quantile(q)
		if v < prev {
			t.Fatalf("ECDF quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestECDFSortedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var e ECDF
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				e.AddAll([]float64{x})
			}
		}
		return sort.Float64sAreSorted(e.Sorted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestECDFIncrementalSortMatchesFullSort interleaves appends — single
// values and batches, with duplicates, ±Inf and NaN — with reads, which
// sort the appended tail and merge it into the sorted prefix, and checks
// every read against sort.Float64s over everything appended so far.
func TestECDFIncrementalSortMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	draw := func() float64 {
		switch rng.IntN(10) {
		case 0:
			return special[rng.IntN(len(special))]
		case 1, 2, 3:
			return float64(rng.IntN(5)) // duplicates
		default:
			return rng.NormFloat64() * 100
		}
	}
	for trial := 0; trial < 50; trial++ {
		var e ECDF
		var all []float64
		for step := 0; step < 30; step++ {
			if rng.IntN(3) == 0 {
				v := draw()
				e.AddAll([]float64{v})
				all = append(all, v)
			} else {
				batch := make([]float64, rng.IntN(40))
				for i := range batch {
					batch[i] = draw()
				}
				e.AddAll(batch)
				all = append(all, batch...)
			}
			if rng.IntN(2) == 0 {
				continue // let several appends pile up before a read
			}
			want := append([]float64(nil), all...)
			sort.Float64s(want)
			got := e.Sorted()
			if len(got) != len(want) {
				t.Fatalf("trial %d step %d: %d values, want %d", trial, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("trial %d step %d: sorted[%d] = %v, want %v", trial, step, i, got[i], want[i])
				}
			}
		}
	}
}
