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
func (AndersonDKW) NewState() State { return &andersonState{} }

type andersonState struct {
	ecdf stats.ECDF
	sum  float64
}

func (s *andersonState) Update(v float64) {
	s.ecdf.Add(v)
	s.sum += v
}

func (s *andersonState) UpdateBatch(vs []float64) {
	s.ecdf.AddAll(vs)
	for _, v := range vs {
		s.sum += v
	}
}

func (s *andersonState) Count() int { return s.ecdf.Count() }

func (s *andersonState) Estimate() float64 {
	if s.ecdf.Count() == 0 {
		return 0
	}
	return s.sum / float64(s.ecdf.Count())
}

func (s *andersonState) Lower(p Params) float64 {
	m := s.ecdf.Count()
	if m == 0 {
		return p.A
	}
	eps := math.Sqrt(stats.Log1Over(p.Delta) / (2 * float64(m)))
	if eps >= 1 {
		return p.A
	}
	// Keep the points whose empirical CDF value is ≤ 1−ε, i.e. drop the
	// ceil(ε·m) largest; rank k of the largest kept point satisfies
	// k/m ≤ 1−ε.
	keep := int(math.Floor((1 - eps) * float64(m)))
	if keep <= 0 {
		return p.A
	}
	return eps*p.A + (1-eps)*s.ecdf.MeanBelowRank(keep)
}

func (s *andersonState) Upper(p Params) float64 {
	m := s.ecdf.Count()
	if m == 0 {
		return p.B
	}
	eps := math.Sqrt(stats.Log1Over(p.Delta) / (2 * float64(m)))
	if eps >= 1 {
		return p.B
	}
	// Mirror of Lower: drop the ε-fraction smallest points and allocate
	// their mass at b. Average of the kept (largest) points is the total
	// minus the dropped prefix.
	keep := int(math.Floor((1 - eps) * float64(m)))
	if keep <= 0 {
		return p.B
	}
	drop := m - keep
	var kept float64
	if drop == 0 {
		kept = s.sum / float64(m)
	} else {
		droppedMean := s.ecdf.MeanBelowRank(drop)
		kept = (s.sum - droppedMean*float64(drop)) / float64(keep)
	}
	return eps*p.B + (1-eps)*kept
}
