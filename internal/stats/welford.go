// Package stats provides the statistics primitives of the error bounders
// and the execution engine: the log and sampling-fraction terms of the
// inequalities, and empirical CDFs with their DKW quantile intervals.
// Welford's one-pass mean/variance and the two-pass Mean and Variance are
// the references tests hold the bounders' moments to.
//
// Everything in this package is O(1) per update unless documented
// otherwise, and nothing allocates on the update path.
package stats

import "math"

// Welford accumulates a running mean and variance in one pass using
// Welford's numerically stable recurrence. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add incorporates a new observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations seen.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (dividing by n), matching the
// paper's definition VAR(D) = (1/N)·Σ(x−AVG(D))². It returns 0 for fewer
// than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n)
	if v < 0 {
		return 0 // guard against tiny negative rounding residue
	}
	return v
}

// Stddev returns the square root of Variance.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset returns the accumulator to its zero state.
func (w *Welford) Reset() { *w = Welford{} }
