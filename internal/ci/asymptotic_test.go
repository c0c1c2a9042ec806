package ci_test

import (
	"math"
	"math/rand/v2"
	"testing"

	. "fastframe/internal/ci"
	"fastframe/internal/core"
	"fastframe/internal/stats"
)

// clt is the classic central-limit-theorem interval ĝ ± z_{1−δ}·σ̂/√m
// with the finite-population correction (Hájek's CLT for sampling
// without replacement). It is not a bounder in the sense of Definition 1:
// its coverage only tends to 1−δ as m grows, and a sample that misses a
// rare heavy tail reports a tiny σ̂ and an absurdly narrow interval. It
// lives here only to reproduce the paper's "compactness without
// correctness" comparison (§1), as a bare accumulator: no Bounder makes
// it, because every ci.State is SSI.
type cltState struct{ Moments }

func (s *cltState) Update(v float64) { s.UpdateBatch([]float64{v}) }

func (s *cltState) Lower(p Params) float64 {
	if s.Count() == 0 {
		return p.A
	}
	return s.Estimate() - s.epsilon(p)
}

func (s *cltState) Upper(p Params) float64 {
	if s.Count() == 0 {
		return p.B
	}
	return s.Estimate() + s.epsilon(p)
}

// epsilon is z·σ̂/√m·√(1−(m−1)/N), z = √2·erfinv(1−2δ) the normal upper
// δ-quantile (δ < 1/2 here).
func (s *cltState) epsilon(p Params) float64 {
	m := s.Count()
	if m < 2 {
		return math.Inf(1)
	}
	z := math.Sqrt2 * math.Erfinv(1-2*p.Delta)
	return z * s.Stddev() / math.Sqrt(float64(m)) * math.Sqrt(stats.SamplingFraction(m, p.N))
}

func TestCLTBasicBehavior(t *testing.T) {
	s := &cltState{}
	p := Params{A: 0, B: 1, N: 100000, Delta: 0.025}
	if s.Lower(p) != 0 || s.Upper(p) != 1 {
		t.Error("empty CLT state not trivial")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 10000; i++ {
		s.Update(rng.Float64())
	}
	lo, hi := s.Lower(p), s.Upper(p)
	if lo > 0.5 || hi < 0.5 {
		t.Errorf("CLT interval [%v,%v] misses 0.5 on uniform data", lo, hi)
	}
	// CLT intervals are far narrower than SSI ones at equal m and δ.
	hs := HoeffdingSerfling{}.NewState()
	for i := 0; i < 10000; i++ {
		hs.Update(rng.Float64())
	}
	if (hi - lo) >= BoundInterval(hs, Params{A: 0, B: 1, N: 100000, Delta: 0.05}).Width() {
		t.Error("CLT not narrower than Hoeffding — implementation suspect")
	}
}

// TestCLTUnderCoversOnHeavyTail reproduces the paper's motivation: on
// data with a rare heavy tail, CLT intervals at small m fail to cover
// the true mean far more often than their nominal δ, while the SSI
// bounders of the paper's Table 5, RangeTrim-wrapped ones included,
// never miss. This is the subset/superset-error risk of asymptotic CIs
// (§1). The file is an external test package so that core.RangeTrim,
// which imports this package, can be one of the arms.
func TestCLTUnderCoversOnHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 37))
	const (
		n      = 100_000
		m      = 200
		trials = 400
		delta  = 0.05 // two-sided
	)
	data := make([]float64, n)
	truth := 0.0
	for i := range data {
		if rng.Float64() < 0.002 {
			data[i] = 1 // rare spike at the top of [0,1]
		}
		truth += data[i]
	}
	truth /= float64(n)

	miss := make([]int, len(coverageArms))
	for trial := 0; trial < trials; trial++ {
		countMisses(miss, data, truth, rng.Perm(n)[:m], Params{A: 0, B: 1, N: n, Delta: delta})
	}
	// With spike probability 0.002 and m=200, ~67% of samples see no
	// spike at all; those report σ̂=0 and a zero-width interval at 0,
	// missing the true mean ≈0.002. Nominal δ=0.05 would allow ≤5%.
	if frac := float64(miss[0]) / trials; frac < 0.25 {
		t.Errorf("CLT missed only %.1f%% — heavy-tail failure mode not reproduced", 100*frac)
	}
	for i, b := range coverageArms[1:] {
		if miss[i+1] != 0 {
			t.Errorf("SSI bounder %s missed %d times", b.Name(), miss[i+1])
		}
	}
}

// coverageArm is one interval of the coverage studies: a Bounder's, or
// CLT's when Bounder is nil.
type coverageArm struct{ Bounder }

func (a coverageArm) Name() string {
	if a.Bounder == nil {
		return "clt"
	}
	return a.Bounder.Name()
}

// interval returns the arm's (1−δ) interval over sample: BoundInterval
// of a Bounder's state, and for CLT the same union of two one-sided
// intervals at δ/2, clamped to [A, B].
func (a coverageArm) interval(sample []float64, p Params) Interval {
	if a.Bounder != nil {
		s := a.NewState()
		for _, v := range sample {
			s.Update(v)
		}
		return BoundInterval(s, p)
	}
	var s cltState
	for _, v := range sample {
		s.Update(v)
	}
	half := p
	half.Delta = p.Delta / 2
	return Interval{Lo: math.Max(s.Lower(half), p.A), Hi: math.Min(s.Upper(half), p.B), Estimate: s.Estimate(), Samples: s.Count()}
}

// coverageArms are CLT followed by the SSI bounders of the paper's
// Table 5.
var coverageArms = []coverageArm{
	{},
	{HoeffdingSerfling{}},
	{core.RangeTrim{Inner: HoeffdingSerfling{}}},
	{EmpiricalBernsteinSerfling{}},
	{core.RangeTrim{Inner: EmpiricalBernsteinSerfling{}}},
}

// countMisses bounds the mean of data from the rows at idx under every
// coverage arm and counts, into miss, the intervals that do not contain
// truth.
func countMisses(miss []int, data []float64, truth float64, idx []int, p Params) {
	sample := make([]float64, len(idx))
	for k, j := range idx {
		sample[k] = data[j]
	}
	for i, a := range coverageArms {
		if !a.interval(sample, p).Contains(truth) {
			miss[i]++
		}
	}
}

// TestCoverageStudy measures each arm's miss rate over a roster of
// distributions that separate the bounders: uniform, the two-point worst
// case for which Hoeffding–Serfling is nearly sharp, a tight Gaussian in
// a wide catalog range (the PHOS regime), a heavy right tail, and that
// Gaussian with rare values at the top of the range. The SSI arms may
// miss, but never above their nominal δ beyond sampling slack; CLT must
// fail badly on at least one distribution — the §1 motivation.
func TestCoverageStudy(t *testing.T) {
	const (
		n      = 20_000
		m      = 150
		trials = 120
		delta  = 0.05
	)
	gauss := func(rng *rand.Rand) float64 { return 500 + 5*rng.NormFloat64() }
	dists := []struct {
		name string
		a, b float64
		gen  func(rng *rand.Rand) float64
	}{
		{"uniform", 0, 1, func(rng *rand.Rand) float64 { return rng.Float64() }},
		{"two-point", 0, 1, func(rng *rand.Rand) float64 {
			if rng.Float64() < 0.5 {
				return 1
			}
			return 0
		}},
		{"concentrated", 0, 10_000, gauss},
		{"lognormal", 0, 10_000, func(rng *rand.Rand) float64 { return math.Exp(2 + rng.NormFloat64()) }},
		{"concentrated+outliers", 0, 10_000, func(rng *rand.Rand) float64 {
			if rng.Float64() < 0.001 {
				return 10_000
			}
			return gauss(rng)
		}},
	}
	cltFailed := false
	for _, d := range dists {
		rng := rand.New(rand.NewPCG(4, 0xc0ffee))
		miss := make([]int, len(coverageArms))
		data := make([]float64, n)
		for trial := 0; trial < trials; trial++ {
			truth := 0.0
			for i := range data {
				data[i] = math.Min(math.Max(d.gen(rng), d.a), d.b)
				truth += data[i]
			}
			truth /= n
			countMisses(miss, data, truth, rng.Perm(n)[:m], Params{A: d.a, B: d.b, N: n, Delta: delta})
		}
		t.Logf("%s: misses per arm %v of %d", d.name, miss, trials)
		for i, b := range coverageArms[1:] {
			if rate := float64(miss[i+1]) / trials; rate > 2*delta {
				t.Errorf("%s: SSI arm %s missed at rate %v > 2δ", d.name, b.Name(), rate)
			}
		}
		if float64(miss[0])/trials > 0.25 {
			cltFailed = true
		}
	}
	if !cltFailed {
		t.Error("CLT never failed badly — the §1 motivation regime is missing from the roster")
	}
}
