package ci

import (
	"math"
	"math/rand/v2"
	"testing"
)

// allBounders enumerates the package's bounders for table-driven tests.
func allBounders() []Bounder {
	return []Bounder{
		HoeffdingSerfling{},
		EmpiricalBernsteinSerfling{},
		AndersonDKW{},
	}
}

// sampleWithoutReplacement draws m values from data without replacement.
func sampleWithoutReplacement(rng *rand.Rand, data []float64, m int) []float64 {
	idx := rng.Perm(len(data))[:m]
	out := make([]float64, m)
	for i, j := range idx {
		out[i] = data[j]
	}
	return out
}

func uniformData(rng *rand.Rand, n int, a, b float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + rng.Float64()*(b-a)
	}
	return out
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 5, Estimate: 3.5}
	if iv.Width() != 3 {
		t.Errorf("Width = %v, want 3", iv.Width())
	}
	if !iv.Contains(2) || !iv.Contains(5) || !iv.Contains(3.3) {
		t.Error("Contains rejects in-range values")
	}
	if iv.Contains(1.99) || iv.Contains(5.01) {
		t.Error("Contains accepts out-of-range values")
	}
}

func TestEmptyStateReturnsTrivialBounds(t *testing.T) {
	p := Params{A: -3, B: 8, N: 100, Delta: 0.05}
	for _, b := range allBounders() {
		s := b.NewState()
		if got := s.Lower(p); got != p.A {
			t.Errorf("%s: empty Lower = %v, want %v", b.Name(), got, p.A)
		}
		if got := s.Upper(p); got != p.B {
			t.Errorf("%s: empty Upper = %v, want %v", b.Name(), got, p.B)
		}
	}
}

func TestBoundsEncloseEstimate(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	data := uniformData(rng, 10000, 0, 100)
	p := Params{A: 0, B: 100, N: len(data), Delta: 1e-6}
	for _, b := range allBounders() {
		s := b.NewState()
		for _, v := range sampleWithoutReplacement(rng, data, 500) {
			s.Update(v)
		}
		lo, hi := s.Lower(p), s.Upper(p)
		if lo > s.Estimate() || hi < s.Estimate() {
			t.Errorf("%s: bounds [%v,%v] do not enclose estimate %v", b.Name(), lo, hi, s.Estimate())
		}
	}
}

// TestCoverage draws many independent samples and verifies the (1−δ)
// interval always contains the true mean. With conservative bounders and
// δ=0.05 per side a failure in 200 trials would itself be a ~1-in-many
// event; these bounders are far more conservative than their nominal δ,
// so any miss indicates an implementation bug rather than bad luck.
func TestCoverage(t *testing.T) {
	distributions := map[string]func(*rand.Rand) []float64{
		"uniform": func(r *rand.Rand) []float64 { return uniformData(r, 4000, 0, 1) },
		"concentrated": func(r *rand.Rand) []float64 {
			d := make([]float64, 4000)
			for i := range d {
				d[i] = 0.5 + 0.01*r.NormFloat64()
				if d[i] < 0 {
					d[i] = 0
				}
				if d[i] > 1 {
					d[i] = 1
				}
			}
			return d
		},
		"two-point": func(r *rand.Rand) []float64 {
			d := make([]float64, 4000)
			for i := range d {
				if r.Float64() < 0.5 {
					d[i] = 1
				}
			}
			return d
		},
		"outliers": func(r *rand.Rand) []float64 {
			d := make([]float64, 4000)
			for i := range d {
				d[i] = 0.1 * r.Float64()
				if r.Float64() < 0.001 {
					d[i] = 1 // rare outlier at the top of the range
				}
			}
			return d
		},
	}
	for name, gen := range distributions {
		for _, b := range allBounders() {
			rng := rand.New(rand.NewPCG(42, 7))
			misses := 0
			for trial := 0; trial < 50; trial++ {
				data := gen(rng)
				truth := 0.0
				for _, v := range data {
					truth += v
				}
				truth /= float64(len(data))
				s := b.NewState()
				for _, v := range sampleWithoutReplacement(rng, data, 200) {
					s.Update(v)
				}
				iv := BoundInterval(s, Params{A: 0, B: 1, N: len(data), Delta: 0.05})
				if !iv.Contains(truth) {
					misses++
				}
			}
			if misses > 0 {
				t.Errorf("%s on %s: %d/50 intervals missed the true mean", b.Name(), name, misses)
			}
		}
	}
}

// TestWidthShrinksWithSamples verifies the basic compactness property:
// more samples → narrower intervals, for every bounder.
func TestWidthShrinksWithSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	data := uniformData(rng, 50000, 0, 10)
	for _, b := range allBounders() {
		s := b.NewState()
		p := Params{A: 0, B: 10, N: len(data), Delta: 1e-10}
		sample := sampleWithoutReplacement(rng, data, 20000)
		var prev float64 = math.Inf(1)
		for i, v := range sample {
			s.Update(v)
			if (i+1)%5000 == 0 {
				w := BoundInterval(s, p).Width()
				if w >= prev {
					t.Errorf("%s: width did not shrink at m=%d: %v >= %v", b.Name(), i+1, w, prev)
				}
				prev = w
			}
		}
	}
}

// TestDatasetSizeMonotonicity checks the property of §3.3: a larger N can
// only loosen the bounds (Lower shrinks, Upper grows). Theorem 3's
// unknown-N strategy depends on it.
func TestDatasetSizeMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	data := uniformData(rng, 2000, -5, 5)
	for _, b := range allBounders() {
		s := b.NewState()
		for _, v := range sampleWithoutReplacement(rng, data, 400) {
			s.Update(v)
		}
		prevLo, prevHi := math.Inf(-1), math.Inf(1)
		first := true
		for _, n := range []int{500, 1000, 2000, 10000, 1 << 30} {
			p := Params{A: -5, B: 5, N: n, Delta: 1e-8}
			lo, hi := s.Lower(p), s.Upper(p)
			if !first {
				if lo > prevLo+1e-12 {
					t.Errorf("%s: Lower increased with N=%d: %v > %v", b.Name(), n, lo, prevLo)
				}
				if hi < prevHi-1e-12 {
					t.Errorf("%s: Upper decreased with N=%d: %v < %v", b.Name(), n, hi, prevHi)
				}
			}
			prevLo, prevHi = lo, hi
			first = false
		}
	}
}

// TestDeltaMonotonicity: smaller δ (stronger guarantee) must widen the CI.
func TestDeltaMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	data := uniformData(rng, 3000, 0, 1)
	for _, b := range allBounders() {
		s := b.NewState()
		for _, v := range sampleWithoutReplacement(rng, data, 300) {
			s.Update(v)
		}
		prev := -1.0
		for _, d := range []float64{1e-2, 1e-4, 1e-8, 1e-15} {
			w := BoundInterval(s, Params{A: 0, B: 1, N: len(data), Delta: d}).Width()
			if w < prev {
				t.Errorf("%s: width shrank as delta tightened to %g: %v < %v", b.Name(), d, w, prev)
			}
			prev = w
		}
	}
}

// TestBernsteinTighterThanHoeffdingLowVariance reproduces the paper's
// motivation: when σ ≪ (b−a), Bernstein-based bounds beat Hoeffding.
func TestBernsteinTighterThanHoeffdingLowVariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	// Data concentrated near 0.5 but with catalog range [0, 1000]. The
	// Bernstein advantage is asymptotic (σ̂/√m vs (b−a)/√m, with a
	// (b−a)/m lower-order term), so probe at a sample size where the
	// 1/m term has decayed.
	data := make([]float64, 200000)
	for i := range data {
		data[i] = 0.5 + 0.05*rng.NormFloat64()
	}
	p := Params{A: 0, B: 1000, N: len(data), Delta: 1e-15}
	hs := HoeffdingSerfling{}.NewState()
	eb := EmpiricalBernsteinSerfling{}.NewState()
	for _, v := range sampleWithoutReplacement(rng, data, 50000) {
		hs.Update(v)
		eb.Update(v)
	}
	wh := BoundInterval(hs, p).Width()
	wb := BoundInterval(eb, p).Width()
	if wb >= wh {
		t.Errorf("Bernstein width %v not tighter than Hoeffding %v on low-variance data", wb, wh)
	}
	if wh/wb < 3 {
		t.Errorf("expected a large Bernstein advantage, got only %.2fx", wh/wb)
	}
}

// TestSerflingBeatsPlainHoeffdingAtHighFraction: with most of the dataset
// sampled, the finite-population correction must help. Unknown N
// (Params.N = 0) is plain Hoeffding.
func TestSerflingBeatsPlainHoeffdingAtHighFraction(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	data := uniformData(rng, 1000, 0, 1)
	s := HoeffdingSerfling{}.NewState()
	for _, v := range sampleWithoutReplacement(rng, data, 900) {
		s.Update(v)
	}
	p := Params{A: 0, B: 1, N: len(data), Delta: 1e-6}
	ws := BoundInterval(s, p).Width()
	p.N = 0
	wp := BoundInterval(s, p).Width()
	if ws >= wp {
		t.Errorf("Serfling width %v not tighter than plain Hoeffding %v at 90%% sampling", ws, wp)
	}
}

func TestHoeffdingKnownValue(t *testing.T) {
	// Hand-computed: m=100 of N=10000, range [0,1], δ=0.01.
	// ε = sqrt(log(100)*(1-99/10000)/(2*100))
	s := HoeffdingSerfling{}.NewState()
	for i := 0; i < 100; i++ {
		s.Update(0.5)
	}
	p := Params{A: 0, B: 1, N: 10000, Delta: 0.01}
	wantEps := math.Sqrt(math.Log(100) * (1 - 99.0/10000) / 200)
	if got := s.Lower(p); math.Abs(got-(0.5-wantEps)) > 1e-12 {
		t.Errorf("Lower = %v, want %v", got, 0.5-wantEps)
	}
	if got := s.Upper(p); math.Abs(got-(0.5+wantEps)) > 1e-12 {
		t.Errorf("Upper = %v, want %v", got, 0.5+wantEps)
	}
}

func TestBernsteinZeroVarianceWidth(t *testing.T) {
	// With zero sample variance the Bernstein width must be exactly the
	// κ(b−a)log(5/δ)/m term.
	s := EmpiricalBernsteinSerfling{}.NewState()
	m := 1000
	for i := 0; i < m; i++ {
		s.Update(3)
	}
	p := Params{A: 0, B: 10, N: 0, Delta: 1e-4}
	kappa := 7.0/3.0 + 3.0/math.Sqrt2
	wantEps := kappa * 10 * math.Log(5/1e-4) / float64(m)
	if got := 3 - s.Lower(p); math.Abs(got-wantEps) > 1e-9 {
		t.Errorf("epsilon = %v, want %v", got, wantEps)
	}
}

func TestBoundIntervalClampsToRange(t *testing.T) {
	// One sample: conservative bounds blow past [A,B]; BoundInterval must clamp.
	for _, b := range allBounders() {
		s := b.NewState()
		s.Update(0.5)
		iv := BoundInterval(s, Params{A: 0, B: 1, N: 100, Delta: 1e-15})
		if iv.Lo < 0 || iv.Hi > 1 {
			t.Errorf("%s: interval [%v,%v] not clamped to [0,1]", b.Name(), iv.Lo, iv.Hi)
		}
		if iv.Lo > iv.Hi {
			t.Errorf("%s: inverted interval [%v,%v]", b.Name(), iv.Lo, iv.Hi)
		}
	}
}
