package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 {
		t.Fatalf("Count = %d, want 0", w.Count())
	}
	if w.Mean() != 0 {
		t.Errorf("Mean = %v, want 0", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("Variance = %v, want 0", w.Variance())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42.5)
	if w.Count() != 1 {
		t.Fatalf("Count = %d, want 1", w.Count())
	}
	if w.Mean() != 42.5 {
		t.Errorf("Mean = %v, want 42.5", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("Variance = %v, want 0", w.Variance())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := w.Variance(); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := w.Stddev(); got != 2 {
		t.Errorf("Stddev = %v, want 2", got)
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 10000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*13 + 7
		w.Add(xs[i])
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-10) {
		t.Errorf("Mean = %v, two-pass = %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-10) {
		t.Errorf("Variance = %v, two-pass = %v", w.Variance(), Variance(xs))
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset with small spread: the naive Σx² formulation loses all
	// precision here; Welford must not.
	var w Welford
	const offset = 1e9
	for i := 0; i < 1000; i++ {
		w.Add(offset + float64(i%2)) // values offset, offset+1
	}
	if got := w.Variance(); !almostEqual(got, 0.25, 1e-6) {
		t.Errorf("Variance = %v, want 0.25", got)
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Add(9)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Errorf("Reset did not clear state: %+v", w)
	}
}
