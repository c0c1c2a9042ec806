package ci

import (
	"math"

	"fastframe/internal/stats"
)

// AndersonDKW is the error bounder of Algorithm 3 in the paper: Anderson's
// (1969) nonparametric mean bound driven by the Dvoretzky–Kiefer–Wolfowitz
// CDF concentration inequality with Massart's (1990) tight constant. The
// paper's Theorem 1 extends DKW to without-replacement sampling from a
// finite dataset, which is why this bounder is usable in FastFrame.
//
// For a confidence lower bound with ε = sqrt(log(1/δ)/(2m)), the ε-mass
// of largest observed points is discarded and re-allocated at the lower
// range bound a:
//
//	Lower = ε·a + (1−ε)·AVG{x ∈ S : F̂(x) ≤ 1−ε}
//
// The lower bound never references b (no PHOS), but the relocated mass
// always lands exactly at a regardless of what was observed (PMA). State
// is O(m): the whole sample is retained.
type AndersonDKW struct{}

// Name implements Bounder.
func (AndersonDKW) Name() string { return "anderson" }

// NewState implements Bounder.
func (AndersonDKW) NewState() State { return State{kind: anderson, ecdf: new(stats.ECDF)} }

// andersonCut returns Anderson's ε = sqrt(log(1/δ)/(2m)) and keep, how
// many points a side keeps: Lower the smallest, whose empirical CDF is
// ≤ 1−ε, and Upper as many of the largest. The dropped ε-mass moves to
// the side's range end; keep ≤ 0 leaves the range end itself.
func (s *State) andersonCut(p Params) (eps float64, keep int) {
	if s.n == 0 {
		return 0, 0
	}
	eps = math.Sqrt(stats.Log1Over(p.Delta) / (2 * float64(s.n)))
	if eps >= 1 {
		return eps, 0
	}
	return eps, int(math.Floor((1 - eps) * float64(s.n)))
}

// andersonLower is Lower for the Anderson kind: the ε-mass of largest
// points moved to a.
func (s *State) andersonLower(p Params) float64 {
	eps, keep := s.andersonCut(p)
	if keep <= 0 {
		return p.A
	}
	return eps*p.A + (1-eps)*s.ecdf.MeanBelowRank(keep)
}

// andersonUpper is Upper for the Anderson kind, Lower's mirror: the
// ε-mass of smallest points moved to b. The kept (largest) points
// average the total less the dropped prefix.
func (s *State) andersonUpper(p Params) float64 {
	eps, keep := s.andersonCut(p)
	if keep <= 0 {
		return p.B
	}
	kept := s.sum / float64(s.n)
	if drop := s.n - keep; drop > 0 {
		kept = (s.sum - s.ecdf.MeanBelowRank(drop)*float64(drop)) / float64(keep)
	}
	return eps*p.B + (1-eps)*kept
}
