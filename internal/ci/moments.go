package ci

import (
	"math"
	"math/bits"
)

// Moments is the streaming state of every moment-based bounder: count,
// mean and variance kept as sums of deviations from a centre c — n, c,
// Σ(v−c), Σ(v−c)² — so that taking a value is a subtract, a multiply and
// two adds with no division on the loop-carried chain; mean and variance
// are derived at bound time. The centre is the first value and moves to
// the running mean whenever the count reaches a power of two: between
// re-centrings the count at most doubles, which keeps (mean−c)² within
// twice the variance and Variance's subtraction free of cancellation,
// whatever the data's offset or first value.
//
// Re-centring is keyed on the count alone, never on batch boundaries, so
// the state is a pure function of the value sequence, however it was cut
// into batches. The zero value is ready to use.
type Moments struct {
	n      int
	c      float64
	s1, s2 float64
}

// UpdateBatch incorporates vs in order.
func (m *Moments) UpdateBatch(vs []float64) {
	for len(vs) > 0 {
		k := m.run(len(vs))
		if m.n == 0 {
			m.c = vs[0]
		}
		c, s1, s2 := m.c, m.s1, m.s2
		for _, v := range vs[:k] {
			d := v - c
			s1 += d
			s2 += d * d
		}
		m.s1, m.s2 = s1, s2
		m.took(k)
		vs = vs[k:]
	}
}

// run returns how many of avail values fit before the next re-centring.
func (m *Moments) run(avail int) int {
	return min(avail, 1<<bits.Len(uint(m.n))-m.n)
}

// took counts k values just added and, at a power of two, re-centres.
func (m *Moments) took(k int) {
	m.n += k
	if m.n&(m.n-1) != 0 {
		return
	}
	n := float64(m.n)
	c := m.c + m.s1/n
	d := c - m.c // the shift actually made, after rounding
	m.s2 -= d * (2*m.s1 - n*d)
	m.s1 -= n * d
	m.c = c
}

// Trim returns s with RangeTrim's sides (Algorithm 6; core.RangeTrim
// states the bounds). ok is false, and s comes back unchanged, unless s
// is a fresh state of a moment kind: Anderson's bounds never read the
// far end of the range anyway.
func Trim(s State) (t State, ok bool) {
	if s.kind == anderson || s.trim || s.n != 0 {
		return s, false
	}
	s.trim = true
	return s, true
}

// updateTrimmed is the streaming form of Algorithm 6 as one loop: the
// first value only initializes the running extrema; each later v adds
// min(v, hi) to the left side and max(v, lo) to the right side, then
// widens [lo, hi] to hold v — clip, accumulations and running extrema
// all in registers. It leaves the state exactly as Algorithm 4 would
// after drawing the same sequence; n is the caller's to advance.
func (s *State) updateTrimmed(vs []float64) {
	if s.n == 0 && len(vs) > 0 {
		s.lo, s.hi, vs = vs[0], vs[0], vs[1:]
	}
	below, above, mn, mx := &s.left, &s.right, s.lo, s.hi
	for len(vs) > 0 {
		k := below.run(len(vs))
		if below.n == 0 {
			below.c, above.c = math.Min(vs[0], mx), math.Max(vs[0], mn)
		}
		bc, b1, b2 := below.c, below.s1, below.s2
		ac, a1, a2 := above.c, above.s1, above.s2
		for _, v := range vs[:k] {
			bv, av := v, v
			if v > mx {
				bv, mx = mx, v
			}
			if v < mn {
				av, mn = mn, v
			}
			d := bv - bc
			b1 += d
			b2 += d * d
			e := av - ac
			a1 += e
			a2 += e * e
		}
		below.s1, below.s2, above.s1, above.s2 = b1, b2, a1, a2
		below.took(k)
		above.took(k)
		vs = vs[k:]
	}
	s.lo, s.hi = mn, mx
}

// trimN maps the outer dataset size to the size the trimmed sides are
// bounded at: N−1 for a known size (the trimmed dataset D<b′ has at most
// N−1 elements and monotonicity makes the upper bound safe), and
// "unknown" passes through.
func trimN(n int) int {
	if n <= 1 {
		return n
	}
	return n - 1
}

// Count returns the number of values incorporated.
func (m *Moments) Count() int { return m.n }

// Estimate returns the mean of the values, or 0 with none.
func (m *Moments) Estimate() float64 {
	if m.n == 0 {
		return 0
	}
	return m.c + m.s1/float64(m.n)
}

// Variance returns the population variance (dividing by n), matching the
// paper's definition VAR(D) = (1/N)·Σ(x−AVG(D))².
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	n := float64(m.n)
	return math.Max(0, (m.s2-m.s1*m.s1/n)/n)
}

// Stddev returns the square root of Variance.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }
