package ci

import (
	"math"

	"fastframe/internal/stats"
)

// HoeffdingSerfling is the error bounder of Algorithm 1 in the paper,
// derived from the Hoeffding–Serfling inequality (Serfling 1974) for
// sampling without replacement. Its interval widths depend only on the
// range (b−a), the sample size m, and the sampling fraction, so it
// exhibits both PMA and PHOS (paper Table 2).
//
// When the dataset size N is unknown (Params.N ≤ 0), the sampling
// fraction term is dropped and the bound degrades to plain Hoeffding,
// which is still valid for without-replacement samples (Hoeffding 1963).
type HoeffdingSerfling struct{}

// Name implements Bounder.
func (HoeffdingSerfling) Name() string { return "hoeffding" }

// NewState implements Bounder.
func (HoeffdingSerfling) NewState() State { return State{kind: hoeffding} }

// hoeffdingEpsilon returns (b−a)·sqrt(log(1/δ)·(1−(m−1)/N)/(2m)).
func hoeffdingEpsilon(s *Moments, p Params) float64 {
	m := s.Count()
	frac := stats.SamplingFraction(m, p.N)
	return (p.B - p.A) * math.Sqrt(stats.Log1Over(p.Delta)*frac/(2*float64(m)))
}
