package ci

import (
	"math"

	"fastframe/internal/stats"
)

// CLT is the classic central-limit-theorem bounder: ĝ ± z_{1−δ}·σ̂/√m
// with the finite-population correction (Hájek's CLT for simple random
// sampling without replacement).
//
// It is NOT a (1−δ) error bounder in the sense of Definition 1: its
// coverage only converges to 1−δ as m → ∞ (with constants governed by
// unknown third moments, per Berry–Esseen), and it can fail
// catastrophically at practical sample sizes — a sample that misses a
// rare heavy tail reports a tiny σ̂ and an absurdly narrow interval.
// FastFrame includes it solely to reproduce the paper's motivating
// comparison ("compactness without correctness", §1);
// TestCLTUnderCoversOnHeavyTail demonstrates the failure mode. Do not use
// it where correctness matters.
type CLT struct{}

// Name implements Bounder.
func (CLT) Name() string { return "clt" }

// NewState implements Bounder.
func (CLT) NewState() State { return &momentState{epsilon: cltEpsilon} }

func cltEpsilon(s *Moments, p Params) float64 {
	m := s.Count()
	if m < 2 {
		return math.Inf(1)
	}
	z := NormalUpperQuantile(p.Delta)
	fpc := math.Sqrt(stats.SamplingFraction(m, p.N))
	return z * s.Stddev() / math.Sqrt(float64(m)) * fpc
}

// NormalUpperQuantile returns z such that P(Z > z) = delta for a
// standard normal Z, via the inverse error function:
// z = √2·erfinv(1−2δ). Degenerate inputs clamp to 0 (δ ≥ 1/2) or +Inf
// (δ ≤ 0).
func NormalUpperQuantile(delta float64) float64 {
	if delta <= 0 {
		return math.Inf(1)
	}
	if delta >= 0.5 {
		return 0
	}
	return math.Sqrt2 * math.Erfinv(1-2*delta)
}
