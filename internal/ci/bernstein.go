package ci

import (
	"math"

	"fastframe/internal/stats"
)

// bernsteinKappa is the κ = 7/3 + 3/√2 constant of the empirical
// Bernstein–Serfling inequality (Bardenet & Maillard 2015).
var bernsteinKappa = 7.0/3.0 + 3.0/math.Sqrt2

// EmpiricalBernsteinSerfling is the error bounder of Algorithm 2 in the
// paper, derived from the empirical Bernstein–Serfling inequality. Its
// width scales as O(σ̂/√m + (b−a)/m): the range enters only in the
// lower-order 1/m term, so the bounder is distribution-sensitive and has
// no PMA — but it retains PHOS because its error is symmetric (both ends
// depend on both a and b through (b−a)).
//
// The implementation keeps the moments as shifted sums (Moments) rather
// than the raw second-moment form shown in the paper's pseudocode, whose
// cancellation the paper's own footnote warns about.
type EmpiricalBernsteinSerfling struct{}

// Name implements Bounder.
func (EmpiricalBernsteinSerfling) Name() string { return "bernstein" }

// NewState implements Bounder.
func (EmpiricalBernsteinSerfling) NewState() State { return State{kind: bernstein} }

// bernsteinEpsilon returns σ̂·sqrt(2ρ·log(5/δ)/m) + κ·(b−a)·log(5/δ)/m.
func bernsteinEpsilon(s *Moments, p Params) float64 {
	m := s.Count()
	fm := float64(m)
	logTerm := stats.LogKOver(5, p.Delta)
	rho := stats.BernsteinRho(m, p.N)
	return s.Stddev()*math.Sqrt(2*rho*logTerm/fm) +
		bernsteinKappa*(p.B-p.A)*logTerm/fm
}
