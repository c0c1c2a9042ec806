package ci

import (
	"math"
	"math/rand/v2"
	"testing"
)

// neumaier is a compensated running sum: the reference the accuracy
// test measures Moments against.
type neumaier struct{ sum, comp float64 }

func (k *neumaier) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.comp += (k.sum - t) + x
	} else {
		k.comp += (x - t) + k.sum
	}
	k.sum = t
}

func (k *neumaier) value() float64 { return k.sum + k.comp }

// referenceMoments is the compensated two-pass mean and population
// variance (with the usual correction for the residual of the mean).
func referenceMoments(xs []float64) (mean, variance float64) {
	var s neumaier
	for _, x := range xs {
		s.add(x)
	}
	n := float64(len(xs))
	mean = s.value() / n
	var d1, d2 neumaier
	for _, x := range xs {
		d := x - mean
		d1.add(d)
		d2.add(d * d)
	}
	return mean, (d2.value() - d1.value()*d1.value()/n) / n
}

// adversarialSequences are n values in [a, b] built to break a naive
// sum-of-squares: a far first value (the initial centre), a large
// common offset, no spread at all, and the widest spread there is.
func adversarialSequences(n int) (a, b float64, seqs map[string][]float64) {
	rng := rand.New(rand.NewPCG(17, 4))
	a, b = -1e9, 2e9
	seqs = map[string][]float64{
		"first-value-far-outlier": make([]float64, n),
		"offset-1e9-unit-noise":   make([]float64, n),
		"constant":                make([]float64, n),
		"alternating-extremes":    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		seqs["first-value-far-outlier"][i] = rng.NormFloat64()
		seqs["offset-1e9-unit-noise"][i] = 1e9 + rng.NormFloat64()
		seqs["constant"][i] = 1234.5678
		seqs["alternating-extremes"][i] = []float64{a, b}[i%2]
	}
	seqs["first-value-far-outlier"][0] = 1e9
	return a, b, seqs
}

// TestMomentsAccuracy holds the shifted sums to the compensated
// reference on the adversarial sequences at n = 4 M: variance within
// 1e-9 relative (1e-12·(b−a)² absolute when the truth is 0), the mean
// within 1e-12 of the range.
func TestMomentsAccuracy(t *testing.T) {
	n := 4_000_000
	if testing.Short() {
		n = 200_000
	}
	a, b, seqs := adversarialSequences(n)
	for name, xs := range seqs {
		var m Moments
		m.UpdateBatch(xs)
		mean, variance := referenceMoments(xs)
		tol := 1e-9 * variance
		if variance == 0 {
			tol = 1e-12 * (b - a) * (b - a)
		}
		if got := m.Variance(); math.Abs(got-variance) > tol {
			t.Errorf("%s: variance %v, reference %v (relative error %.3g)", name, got, variance, math.Abs(got-variance)/variance)
		}
		if got := m.Estimate(); math.Abs(got-mean) > 1e-12*(b-a) {
			t.Errorf("%s: mean %v, reference %v", name, got, mean)
		}
		if m.Count() != n {
			t.Errorf("%s: count %d", name, m.Count())
		}
	}
}

func TestTrimN(t *testing.T) {
	cases := []struct{ in, want int }{{-1, -1}, {0, 0}, {1, 1}, {2, 1}, {100, 99}}
	for _, c := range cases {
		if got := trimN(c.in); got != c.want {
			t.Errorf("trimN(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestTrimRefusesWhatItCannotTrim: Trim gives RangeTrim's sides to a
// fresh moment-based state only — not to Anderson's, to a trimmed one
// or to one that already holds values — and returns the others as they
// were.
func TestTrimRefusesWhatItCannotTrim(t *testing.T) {
	used := HoeffdingSerfling{}.NewState()
	used.Update(1)
	trimmed, _ := Trim(EmpiricalBernsteinSerfling{}.NewState())
	for name, s := range map[string]State{"anderson": AndersonDKW{}.NewState(), "trimmed": trimmed, "used": used} {
		if got, ok := Trim(s); ok || got != s {
			t.Errorf("%s: Trim = (%+v, %v), want the state back and false", name, got, ok)
		}
	}
	for _, b := range []Bounder{HoeffdingSerfling{}, EmpiricalBernsteinSerfling{}} {
		if _, ok := Trim(b.NewState()); !ok {
			t.Errorf("%s: a fresh state not trimmed", b.Name())
		}
	}
}
