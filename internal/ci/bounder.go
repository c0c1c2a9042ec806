// Package ci implements sample-size-independent (SSI) confidence-interval
// bounders for the mean of a finite, bounded dataset sampled without
// replacement, following the interface of §2.2.2 of Macke et al.,
// "Rapid Approximate Aggregation with Distribution-Sensitive Interval
// Guarantees" (ICDE 2021):
//
//	① init_state    → Bounder.NewState
//	② update_state  → (*State).Update, (*State).UpdateBatch
//	③ Lbound        → (*State).Lower
//	④ Rbound        → (*State).Upper
//
// Every bounder's state is the one concrete State; a Bounder picks its
// kind. The package's three bounders — HoeffdingSerfling,
// EmpiricalBernsteinSerfling and AndersonDKW — all satisfy Definition 1
// of the paper: for a uniform without-replacement sample from a dataset
// D of N values in [a,b], the probability that Lower exceeds AVG(D) is
// < δ, and likewise for Upper, for ANY sample size. They also satisfy
// the dataset-size monotonicity property of §3.3: substituting any
// N′ > N can only loosen the bound, so an upper bound on N is always
// safe. Trim gives a State RangeTrim's sides (Algorithm 6; core.RangeTrim
// is its Bounder). An asymptotic (CLT) interval is not SSI, and lives
// only in the tests that show it under-covering (§1).
package ci

import (
	"math"

	"fastframe/internal/stats"
)

// Params carries the side conditions a bounder needs at bound-computation
// time: the a-priori range [A,B] enclosing every value of the dataset,
// the dataset size N (or an upper bound on it; ≤ 0 means unknown, in
// which case the with-replacement bound is used), and the per-side error
// probability Delta.
type Params struct {
	A, B  float64
	N     int
	Delta float64
}

// kind is the bounder a State computes its bounds with.
type kind uint8

const (
	hoeffding kind = iota
	bernstein
	anderson
)

// epsilon returns a moment kind's half-width around the mean of m: a
// switch, not a table of funcs, through which m would escape.
func (k kind) epsilon(m *Moments, p Params) float64 {
	switch k {
	case hoeffding:
		return hoeffdingEpsilon(m, p)
	case bernstein:
		return bernsteinEpsilon(m, p)
	}
	panic("ci: no half-width for a kind that is not moment-based")
}

// State is the streaming per-aggregate state of every bounder, made by
// a Bounder's NewState. It is not safe for concurrent use; the executor
// gives each (group, input) track its own State. A copy of a State is a
// snapshot, except that copies of an Anderson state share its retained
// sample: once one of them is updated, only that one is current.
//
// A State is determined by the sequence of values it has incorporated,
// never by how that sequence was cut into batches: UpdateBatch(vs) is
// Update(v) for each v in order, bit for bit, and so is any split of vs
// into batches, empty ones included. The executor hands a state one
// batch per group and span of blocks, and its scalar reference kernel
// one value at a time: this is what keeps the two byte-identical.
type State struct {
	kind kind
	trim bool // RangeTrim's sides (Trim)
	n    int  // values incorporated

	// left accumulates a moment kind's values; under trim it is the left
	// side, min(v, running max), and right the right side, max(v,
	// running min), with lo and hi the running extrema.
	left, right Moments
	lo, hi      float64

	// ecdf is Anderson's retained sample and sum its sum. A pointer, so
	// that a copy never sorts the sample behind the original's back.
	ecdf *stats.ECDF
	sum  float64
}

// Update incorporates a newly sampled value: UpdateBatch of one value.
func (s *State) Update(v float64) { s.UpdateBatch([]float64{v}) }

// UpdateBatch incorporates a batch of sampled values in order, with one
// switch on the kind per batch and none per value.
func (s *State) UpdateBatch(vs []float64) {
	switch {
	case s.trim:
		s.updateTrimmed(vs)
	case s.kind == anderson:
		s.ecdf.AddAll(vs)
		for _, v := range vs {
			s.sum += v
		}
	default:
		s.left.UpdateBatch(vs)
	}
	s.n += len(vs)
}

// Count returns the number of values incorporated so far.
func (s *State) Count() int { return s.n }

// Estimate returns the current point estimate of the mean (the plain
// sample average), or 0 with no samples.
func (s *State) Estimate() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.kind == anderson:
		return s.sum / float64(s.n)
	case s.trim:
		// The left side holds the sample minus its maximum (each value
		// above the running maximum fed it the old maximum instead), so
		// the sample's sum is the left sum plus the observed maximum.
		return (s.left.Estimate()*float64(s.n-1) + s.hi) / float64(s.n)
	}
	return s.left.Estimate()
}

// Lower returns a value that exceeds the true dataset mean with
// probability < p.Delta. With no samples it returns p.A.
func (s *State) Lower(p Params) float64 {
	if s.kind == anderson {
		return s.andersonLower(p)
	}
	if s.trim {
		// Algorithm 6 line 21: the left side against [a, max S] at N−1,
		// clamped to a below; it never reads p.B.
		p.B, p.N = s.hi, trimN(p.N)
	}
	if s.left.n == 0 {
		return p.A
	}
	lo := s.left.Estimate() - s.kind.epsilon(&s.left, p)
	if s.trim && lo < p.A {
		lo = p.A
	}
	return lo
}

// Upper returns a value below the true dataset mean with probability
// < p.Delta. With no samples it returns p.B.
func (s *State) Upper(p Params) float64 {
	if s.kind == anderson {
		return s.andersonUpper(p)
	}
	m := &s.left
	if s.trim {
		// Lower's mirror: the right side against [min S, b] at N−1,
		// clamped to b above; it never reads p.A.
		m, p.A, p.N = &s.right, s.lo, trimN(p.N)
	}
	if m.n == 0 {
		return p.B
	}
	hi := m.Estimate() + s.kind.epsilon(m, p)
	if s.trim && hi > p.B {
		hi = p.B
	}
	return hi
}

// Bounder creates States. A Bounder is a stateless factory and safe for
// concurrent use.
type Bounder interface {
	// Name returns a short identifier ("hoeffding", "bernstein+rt", ...)
	// used in benchmark output and the experiment harness.
	Name() string
	// NewState returns a fresh streaming state.
	NewState() State
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Lo, Hi   float64
	Estimate float64
	Samples  int
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v ∈ [Lo, Hi].
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// BoundInterval combines a (1−δ/2) lower bound and a (1−δ/2) upper bound
// into a (1−δ) confidence interval via a union bound, clamping to [A,B]
// (the trivial always-valid interval). This is the standard way every
// bounder in the paper is turned into a two-sided CI. Non-finite bounds
// — a NaN among the values — degrade to the trivial endpoint rather
// than poisoning downstream interval intersections.
func BoundInterval(s State, p Params) Interval {
	half := p
	half.Delta = p.Delta / 2
	lo := s.Lower(half)
	hi := s.Upper(half)
	if math.IsNaN(lo) || lo < p.A {
		lo = p.A
	}
	if math.IsNaN(hi) || hi > p.B {
		hi = p.B
	}
	// A conservative bounder can cross its own sides when m is tiny;
	// collapse onto the estimate ordering so callers always see Lo ≤ Hi.
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{Lo: lo, Hi: hi, Estimate: s.Estimate(), Samples: s.Count()}
}
