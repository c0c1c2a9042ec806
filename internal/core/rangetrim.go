// Package core implements the primary contribution of Macke et al.
// (ICDE 2021): the RangeTrim meta-bounder that eliminates phantom outlier
// sensitivity (PHOS) from any range-based SSI error bounder (Algorithms
// 4 & 6, Theorem 2), and the OptStop optional-stopping meta-algorithm
// (Algorithm 5, Theorem 4) with the look schedule (Looks) the query
// engine shares.
package core

import "fastframe/internal/ci"

// RangeTrim wraps an inner range-based bounder and "asymmetrizes" it:
// the confidence lower bound is computed over the sample minus its
// maximum, against range [a, max S], and the upper bound over the sample
// minus its minimum, against range [min S, b]. By Lemma 4 / Corollary 1
// of the paper, conditioned on max S the rest of the sample is a uniform
// without-replacement sample from D ∩ (−∞, max S), so the trimmed lower
// bound is a valid lower bound for AVG(D) — and it no longer depends on
// b at all, eliminating PHOS. Dataset size passes through as N−1.
//
// RangeTrim preserves the inner bounder's PMA status: wrapping
// Hoeffding–Serfling retains PMA; wrapping empirical Bernstein–Serfling
// yields the paper's headline bounder with neither pathology.
type RangeTrim struct {
	// Inner is the wrapped range-based bounder. It must be SSI and
	// satisfy the dataset-size monotonicity property (§3.3) — every
	// bounder in package ci does.
	Inner ci.Bounder
}

// Name implements ci.Bounder, reporting "<inner>+rt".
func (rt RangeTrim) Name() string { return rt.Inner.Name() + "+rt" }

// NewState implements ci.Bounder.
func (rt RangeTrim) NewState() ci.State {
	s := &rangeTrimState{left: rt.Inner.NewState(), right: rt.Inner.NewState()}
	if l, ok := s.left.(momentBased); ok {
		s.lm, s.rm = l.Acc(), s.right.(momentBased).Acc()
	}
	return s
}

// momentBased is a ci.State whose whole streaming state is a
// ci.Moments accumulator (Hoeffding, Bernstein and relatives).
type momentBased interface{ Acc() *ci.Moments }

type rangeTrimState struct {
	left  ci.State // sees min(v, running max); used for Lower
	right ci.State // sees max(v, running min); used for Upper

	// lm and rm are the accumulators inside left and right when the inner
	// bounder is moment-based, clipL and clipR the scratch a batch is
	// clipped into when it is not (see UpdateBatch).
	lm, rm       *ci.Moments
	clipL, clipR []float64

	m       int
	minSeen float64
	maxSeen float64
}

// Update incorporates one value: UpdateBatch of a batch of one.
func (s *rangeTrimState) Update(v float64) {
	one := [1]float64{v}
	s.UpdateBatch(one[:])
}

// UpdateBatch implements the streaming form of Algorithm 6: the first
// value only initializes the running extrema; each later value v feeds
// min(v, b′) to the left state and max(v, a′) to the right state before
// the extrema absorb v — exactly the state Algorithm 4 would have after
// drawing the same sequence. Neither path makes an interface call per
// row: a moment-based inner runs the whole recurrence as one loop over
// the two concrete accumulators (ci.UpdateTrimmed); any other inner gets
// the batch clipped into two scratch buffers and one UpdateBatch per
// side — the same values in the same order either way.
func (s *rangeTrimState) UpdateBatch(vs []float64) {
	if len(vs) == 0 {
		return
	}
	rest := vs
	if s.m == 0 {
		s.minSeen, s.maxSeen, rest = vs[0], vs[0], vs[1:]
	}
	s.m += len(vs)
	if s.lm != nil {
		ci.UpdateTrimmed(s.lm, s.rm, &s.minSeen, &s.maxSeen, rest)
		return
	}
	s.clipL, s.clipR = s.clipL[:0], s.clipR[:0]
	for _, v := range rest {
		lv, rv := v, v
		if v > s.maxSeen {
			lv, s.maxSeen = s.maxSeen, v
		}
		if v < s.minSeen {
			rv, s.minSeen = s.minSeen, v
		}
		s.clipL, s.clipR = append(s.clipL, lv), append(s.clipR, rv)
	}
	s.left.UpdateBatch(s.clipL)
	s.right.UpdateBatch(s.clipR)
}

func (s *rangeTrimState) Count() int { return s.m }

// Estimate returns the sample average. The left state holds the sample
// minus its maximum (each time a value exceeded the running maximum the
// left state took the old maximum in its place), so the sum of all
// values is the left sum plus the observed maximum.
func (s *rangeTrimState) Estimate() float64 {
	if s.m == 0 {
		return 0
	}
	return (s.left.Estimate()*float64(s.m-1) + s.maxSeen) / float64(s.m)
}

// Lower returns inner.Lower over the left state with the observed max
// substituted for the upper range bound and dataset size N−1
// (Algorithm 6 line 21). The returned bound never depends on p.B.
func (s *rangeTrimState) Lower(p ci.Params) float64 {
	if s.m == 0 {
		return p.A
	}
	inner := ci.Params{A: p.A, B: s.maxSeen, N: trimN(p.N), Delta: p.Delta}
	lo := s.left.Lower(inner)
	if lo < p.A {
		lo = p.A
	}
	return lo
}

// Upper mirrors Lower with the observed min substituted for the lower
// range bound; it never depends on p.A.
func (s *rangeTrimState) Upper(p ci.Params) float64 {
	if s.m == 0 {
		return p.B
	}
	inner := ci.Params{A: s.minSeen, B: p.B, N: trimN(p.N), Delta: p.Delta}
	hi := s.right.Upper(inner)
	if hi > p.B {
		hi = p.B
	}
	return hi
}

// trimN maps the outer dataset size to the size passed to the inner
// bounder: N−1 for a known size (the trimmed dataset D<b′ has at most
// N−1 elements and monotonicity makes the upper bound safe), and
// "unknown" passes through.
func trimN(n int) int {
	if n <= 0 {
		return n
	}
	if n == 1 {
		return 1
	}
	return n - 1
}
