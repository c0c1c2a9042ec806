package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
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

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var all, left, right Welford
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64() * 10
		all.Add(v)
		if i%3 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	left.Merge(right)
	if left.Count() != all.Count() {
		t.Fatalf("merged Count = %d, want %d", left.Count(), all.Count())
	}
	if !almostEqual(left.Mean(), all.Mean(), 1e-10) {
		t.Errorf("merged Mean = %v, want %v", left.Mean(), all.Mean())
	}
	if !almostEqual(left.Variance(), all.Variance(), 1e-9) {
		t.Errorf("merged Variance = %v, want %v", left.Variance(), all.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty: no-op
	if a != before {
		t.Errorf("merge with empty changed state: %+v -> %+v", before, a)
	}
	b.Merge(a) // merging into empty: copy
	if b != a {
		t.Errorf("merge into empty: got %+v, want %+v", b, a)
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

func TestWelfordMergeProperty(t *testing.T) {
	// Property: splitting any sequence at any point and merging equals
	// processing the whole sequence.
	f := func(xs []float64, split uint8) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if math.Abs(x) < 1e12 { // false for NaN and ±Inf too
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		k := int(split) % (len(clean) + 1)
		var whole, a, b Welford
		for _, x := range clean {
			whole.Add(x)
		}
		for _, x := range clean[:k] {
			a.Add(x)
		}
		for _, x := range clean[k:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.Count() == whole.Count() &&
			almostEqual(a.Mean(), whole.Mean(), 1e-7) &&
			almostEqual(a.Variance(), whole.Variance(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
