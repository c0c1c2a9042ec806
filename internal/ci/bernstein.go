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
func (EmpiricalBernsteinSerfling) NewState() State {
	return &momentState{epsilon: bernsteinEpsilon}
}

// bernsteinEpsilon returns σ̂·sqrt(2ρ·log(5/δ)/m) + κ·(b−a)·log(5/δ)/m.
func bernsteinEpsilon(s *Moments, p Params) float64 {
	m := s.Count()
	fm := float64(m)
	logTerm := stats.LogKOver(5, p.Delta)
	rho := stats.BernsteinRho(m, p.N)
	return s.Stddev()*math.Sqrt(2*rho*logTerm/fm) +
		bernsteinKappa*(p.B-p.A)*logTerm/fm
}

// BernsteinSerfling is the non-empirical Bernstein–Serfling bounder,
// which assumes oracle knowledge of the dataset variance σ². It is not
// usable in a real system (σ² is unknown whenever AVG is unknown) but is
// included as the information-theoretic reference point the empirical
// variant converges to, and for ablation benchmarks.
//
// Width: σ·sqrt(2ρ·log(3/δ)/m) + κ′·(b−a)·log(3/δ)/m with κ′ = 4/3.
type BernsteinSerfling struct {
	// Sigma is the oracle standard deviation of the dataset.
	Sigma float64
}

// Name implements Bounder.
func (BernsteinSerfling) Name() string { return "bernstein-oracle" }

// NewState implements Bounder.
func (b BernsteinSerfling) NewState() State {
	return &momentState{epsilon: func(s *Moments, p Params) float64 {
		m := s.Count()
		fm := float64(m)
		logTerm := stats.LogKOver(3, p.Delta)
		rho := stats.BernsteinRho(m, p.N)
		return b.Sigma*math.Sqrt(2*rho*logTerm/fm) +
			(4.0/3.0)*(p.B-p.A)*logTerm/fm
	}}
}
