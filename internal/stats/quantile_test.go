package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestDKWEpsilon(t *testing.T) {
	// Hand-checked value: m=2000, δ=0.05 → sqrt(ln 40 / 4000).
	want := math.Sqrt(math.Log(2/0.05) / 4000)
	if got := DKWEpsilon(2000, 0.05); !almostEqual(got, want, 1e-12) {
		t.Errorf("DKWEpsilon(2000, 0.05) = %v, want %v", got, want)
	}
	// Shrinks like 1/sqrt(m).
	if !(DKWEpsilon(4000, 0.05) < DKWEpsilon(1000, 0.05)) {
		t.Error("band does not shrink with m")
	}
	// Degenerate inputs give the trivial band.
	for _, c := range []struct {
		m     int
		delta float64
	}{{0, 0.1}, {-5, 0.1}, {10, 1.5}, {1, 0.9999999}} {
		if got := DKWEpsilon(c.m, c.delta); got > 1 || got <= 0 {
			t.Errorf("DKWEpsilon(%d, %g) = %v outside (0, 1]", c.m, c.delta, got)
		}
	}
}

// TestQuantileCIInversionProperty checks the band-inversion rank math
// on random samples: the endpoints are the documented order statistics,
// the interval always contains the empirical quantile, it is monotone
// in eps, and sides whose p±eps mass leaves (0,1) degrade to the
// catalog bounds.
func TestQuantileCIInversionProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	const a, b = -1000.0, 1000.0
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.IntN(400)
		sorted := make([]float64, m)
		for i := range sorted {
			sorted[i] = rng.NormFloat64() * 50
		}
		sort.Float64s(sorted)
		p := 0.01 + 0.98*rng.Float64()
		eps := rng.Float64() * 0.6

		lo, hi := QuantileCI(sorted, p, eps, a, b)
		if lo > hi {
			t.Fatalf("trial %d (m=%d p=%v eps=%v): lo %v > hi %v", trial, m, p, eps, lo, hi)
		}
		if lo < a || hi > b {
			t.Fatalf("trial %d: interval [%v,%v] escapes catalog [%v,%v]", trial, lo, hi, a, b)
		}

		// The empirical p-quantile — the population quantile when the
		// sample IS the population — always lies inside the band.
		var e ECDF
		e.AddAll(sorted)
		if q := e.Quantile(p); q < lo || q > hi {
			t.Fatalf("trial %d (m=%d p=%v eps=%v): empirical quantile %v outside [%v,%v]",
				trial, m, p, eps, q, lo, hi)
		}

		// Endpoint rank math: lo is the largest sample point with
		// empirical mass ≤ p−eps (catalog bound when none qualifies),
		// hi the smallest with mass ≥ p+eps.
		wantLo := a
		if lop := p - eps; lop > 0 {
			if i := int(math.Floor(lop*float64(m))) - 1; i >= 0 {
				wantLo = sorted[min(i, m-1)]
			}
		}
		wantHi := b
		if hip := p + eps; hip < 1 {
			if j := int(math.Ceil(hip*float64(m))) - 1; j <= m-1 {
				wantHi = sorted[max(j, 0)]
			}
		}
		if wantLo > wantHi {
			wantLo, wantHi = wantHi, wantLo // the implementation's swap guard
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d (m=%d p=%v eps=%v): got [%v,%v], rank math says [%v,%v]",
				trial, m, p, eps, lo, hi, wantLo, wantHi)
		}

		// Monotonicity: a wider band never tightens the interval.
		lo2, hi2 := QuantileCI(sorted, p, eps+0.05, a, b)
		if lo2 > lo || hi2 < hi {
			t.Fatalf("trial %d: eps %v → [%v,%v] but eps %v → [%v,%v]",
				trial, eps, lo, hi, eps+0.05, lo2, hi2)
		}
	}

	// Empty sample: the trivial catalog interval.
	if lo, hi := QuantileCI(nil, 0.5, 0.1, a, b); lo != a || hi != b {
		t.Errorf("empty sample → [%v,%v], want catalog [%v,%v]", lo, hi, a, b)
	}
}

// TestWelfordTwoPassProperty: across random sizes and distribution
// shapes, the streaming Welford moments match the naive two-pass
// formulas to close relative tolerance.
func TestWelfordTwoPassProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 23))
	gens := []func() float64{
		func() float64 { return rng.Float64() * 100 },
		func() float64 { return rng.ExpFloat64() * 8 },
		func() float64 { return 1e8 + rng.NormFloat64() }, // large offset, small spread
		func() float64 {
			if rng.Float64() < 0.3 {
				return -20 + rng.NormFloat64()
			}
			return 35 + rng.NormFloat64()
		},
	}
	for trial := 0; trial < 200; trial++ {
		gen := gens[trial%len(gens)]
		n := 2 + rng.IntN(3000)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = gen()
			w.Add(xs[i])
		}
		mean, variance := Mean(xs), Variance(xs)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(w.Mean()-mean) > 1e-9*scale {
			t.Fatalf("trial %d (n=%d): Welford mean %v vs two-pass %v", trial, n, w.Mean(), mean)
		}
		vscale := math.Max(1e-12, variance)
		if math.Abs(w.Variance()-variance) > 1e-6*vscale {
			t.Fatalf("trial %d (n=%d): Welford variance %v vs two-pass %v", trial, n, w.Variance(), variance)
		}
	}
}
