// Package ci implements sample-size-independent (SSI) confidence-interval
// bounders for the mean of a finite, bounded dataset sampled without
// replacement, following the interface of §2.2.2 of Macke et al.,
// "Rapid Approximate Aggregation with Distribution-Sensitive Interval
// Guarantees" (ICDE 2021):
//
//	① init_state    → Bounder.NewState
//	② update_state  → State.Update
//	③ Lbound        → State.Lower
//	④ Rbound        → State.Upper
//
// The package's three bounders — HoeffdingSerfling, EmpiricalBernsteinSerfling
// and AndersonDKW — all satisfy Definition 1 of the paper: for a
// uniform without-replacement sample from a dataset D of N values in
// [a,b], the probability that Lower exceeds AVG(D) is < δ, and likewise
// for Upper, for ANY sample size. They also satisfy the dataset-size
// monotonicity property of §3.3: substituting any N′ > N can only loosen
// the bound, so an upper bound on N is always safe. An asymptotic (CLT)
// interval does not, and lives only in the tests that show it
// under-covering (§1).
package ci

import "math"

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

// State is the streaming per-aggregate state of a bounder.
// Implementations are not safe for concurrent use; the executor gives
// each (group, aggregate) pair its own State.
//
// A State is determined by the sequence of values it has incorporated,
// never by how that sequence was cut into batches: UpdateBatch(vs) is
// Update(v) for each v in order, bit for bit, and so is any split of vs
// into batches, empty ones included. The executor hands a state one
// batch per group and span of blocks, and its scalar reference kernel
// one value at a time: this is what keeps the two byte-identical.
type State interface {
	// Update incorporates a newly sampled value.
	Update(v float64)
	// UpdateBatch incorporates a batch of sampled values in order: one
	// interface dispatch per batch for the caller, none per value inside.
	UpdateBatch(vs []float64)
	// Count returns the number of values incorporated so far.
	Count() int
	// Estimate returns the current point estimate of the mean
	// (the plain sample average).
	Estimate() float64
	// Lower returns a value that exceeds the true dataset mean with
	// probability < p.Delta. With no samples it returns p.A.
	Lower(p Params) float64
	// Upper returns a value below the true dataset mean with
	// probability < p.Delta. With no samples it returns p.B.
	Upper(p Params) float64
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
// from a misbehaving State degrade to the trivial endpoint rather than
// poisoning downstream interval intersections.
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
