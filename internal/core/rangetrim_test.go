package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastframe/internal/ci"
)

func sampleWithoutReplacement(rng *rand.Rand, data []float64, m int) []float64 {
	idx := rng.Perm(len(data))[:m]
	out := make([]float64, m)
	for i, j := range idx {
		out[i] = data[j]
	}
	return out
}

func trimmedBounders() []ci.Bounder {
	return []ci.Bounder{
		RangeTrim{Inner: ci.HoeffdingSerfling{}},
		RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
	}
}

// TestRangeTrimRejectsAnderson: RangeTrim over a bounder that is not
// moment-based panics in NewState with its documented message.
func TestRangeTrimRejectsAnderson(t *testing.T) {
	defer func() {
		if p := recover(); p != "core: RangeTrim needs a moment-based inner bounder, not anderson" {
			t.Errorf("recovered %v, want RangeTrim's panic", p)
		}
	}()
	RangeTrim{Inner: ci.AndersonDKW{}}.NewState()
}

func TestRangeTrimName(t *testing.T) {
	b := RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}}
	if b.Name() != "bernstein+rt" {
		t.Errorf("Name = %q", b.Name())
	}
}

func TestRangeTrimEmptyState(t *testing.T) {
	p := ci.Params{A: -1, B: 1, N: 100, Delta: 0.01}
	for _, b := range trimmedBounders() {
		s := b.NewState()
		if s.Count() != 0 || s.Lower(p) != p.A || s.Upper(p) != p.B {
			t.Errorf("%s: empty state not trivial", b.Name())
		}
	}
}

func TestRangeTrimEstimateIsSampleMean(t *testing.T) {
	// The point estimate must be over the FULL sample even though each
	// inner state sees a clipped stream.
	for _, b := range trimmedBounders() {
		s := b.NewState()
		vals := []float64{1, 9, 5, 3, 7}
		for _, v := range vals {
			s.Update(v)
		}
		if got := s.Estimate(); math.Abs(got-5) > 1e-12 {
			t.Errorf("%s: Estimate = %v, want 5", b.Name(), got)
		}
		if s.Count() != len(vals) {
			t.Errorf("%s: Count = %d, want %d", b.Name(), s.Count(), len(vals))
		}
	}
}

// TestRangeTrimEliminatesPHOS is the paper's headline structural claim:
// after trimming, Lower does not depend on B and Upper does not depend
// on A, for either inner bounder.
func TestRangeTrimEliminatesPHOS(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, b := range trimmedBounders() {
		s := b.NewState()
		for i := 0; i < 500; i++ {
			s.Update(10 + 5*rng.Float64())
		}
		l1 := s.Lower(ci.Params{A: 0, B: 20, N: 10000, Delta: 1e-8})
		l2 := s.Lower(ci.Params{A: 0, B: 1e12, N: 10000, Delta: 1e-8})
		if l1 != l2 {
			t.Errorf("%s: Lower depends on B (%v vs %v)", b.Name(), l1, l2)
		}
		u1 := s.Upper(ci.Params{A: 0, B: 20, N: 10000, Delta: 1e-8})
		u2 := s.Upper(ci.Params{A: -1e12, B: 20, N: 10000, Delta: 1e-8})
		if u1 != u2 {
			t.Errorf("%s: Upper depends on A (%v vs %v)", b.Name(), u1, u2)
		}
	}
}

// TestRangeTrimTighterWhenRangeLoose: when the observed spread is far
// smaller than the catalog range, RangeTrim must yield strictly tighter
// intervals than the inner bounder.
func TestRangeTrimTighterWhenRangeLoose(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = 100 + rng.Float64() // true range [100, 101]
	}
	p := ci.Params{A: 0, B: 10000, N: len(data), Delta: 1e-15}
	for _, inner := range []ci.Bounder{ci.HoeffdingSerfling{}, ci.EmpiricalBernsteinSerfling{}} {
		plain := inner.NewState()
		trimmed := RangeTrim{Inner: inner}.NewState()
		for _, v := range sampleWithoutReplacement(rng, data, 5000) {
			plain.Update(v)
			trimmed.Update(v)
		}
		wp := ci.BoundInterval(plain, p).Width()
		wt := ci.BoundInterval(trimmed, p).Width()
		if wt >= wp {
			t.Errorf("%s: trimmed width %v not tighter than plain %v", inner.Name(), wt, wp)
		}
	}
}

// TestRangeTrimCoverage verifies correctness (Theorem 2): the (1−δ)
// interval contains the true mean across many draws and distributions,
// including an adversarial one with mass at the range endpoints.
func TestRangeTrimCoverage(t *testing.T) {
	gens := map[string]func(*rand.Rand) []float64{
		"uniform": func(r *rand.Rand) []float64 {
			d := make([]float64, 3000)
			for i := range d {
				d[i] = r.Float64()
			}
			return d
		},
		"endpoint-mass": func(r *rand.Rand) []float64 {
			d := make([]float64, 3000)
			for i := range d {
				switch {
				case r.Float64() < 0.02:
					d[i] = 1
				case r.Float64() < 0.02:
					d[i] = 0
				default:
					d[i] = 0.4 + 0.2*r.Float64()
				}
			}
			return d
		},
		"skewed": func(r *rand.Rand) []float64 {
			d := make([]float64, 3000)
			for i := range d {
				d[i] = math.Min(1, r.ExpFloat64()/20)
			}
			return d
		},
		"duplicates": func(r *rand.Rand) []float64 {
			d := make([]float64, 3000)
			for i := range d {
				d[i] = float64(r.IntN(5)) / 4 // heavy ties, exercises the ≺ fix
			}
			return d
		},
	}
	for name, gen := range gens {
		for _, b := range trimmedBounders() {
			rng := rand.New(rand.NewPCG(77, 13))
			misses := 0
			for trial := 0; trial < 40; trial++ {
				data := gen(rng)
				truth := 0.0
				for _, v := range data {
					truth += v
				}
				truth /= float64(len(data))
				s := b.NewState()
				for _, v := range sampleWithoutReplacement(rng, data, 250) {
					s.Update(v)
				}
				iv := ci.BoundInterval(s, ci.Params{A: 0, B: 1, N: len(data), Delta: 0.05})
				if !iv.Contains(truth) {
					misses++
				}
			}
			if misses > 0 {
				t.Errorf("%s on %s: %d/40 intervals missed the true mean", b.Name(), name, misses)
			}
		}
	}
}

// TestRangeTrimMatchesBatchFormulation cross-checks the streaming update
// (Algorithm 6) against the conceptual batch description of Algorithm 4:
// left state ≡ inner state fed S minus one occurrence of max S, with
// values (trivially) below max S.
func TestRangeTrimMatchesBatchFormulation(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(200)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.Float64() * 100
		}
		streamed := RangeTrim{Inner: ci.HoeffdingSerfling{}}.NewState()
		for _, v := range sample {
			streamed.Update(v)
		}

		// Batch form: find max/min, feed inner bounders the remainder.
		maxV, minV := sample[0], sample[0]
		for _, v := range sample {
			maxV = math.Max(maxV, v)
			minV = math.Min(minV, v)
		}
		p := ci.Params{A: 0, B: 1000, N: 5000, Delta: 1e-6}
		gotLo := streamed.Lower(p)
		gotHi := streamed.Upper(p)

		// The streaming form feeds min(v, running-max)/max(v, running-min)
		// which differs from the batch "remove the max" only in WHICH
		// duplicate/prefix values get clipped; for the Hoeffding inner
		// bounder only the clipped mean matters. Reconstruct it exactly.
		left := ci.HoeffdingSerfling{}.NewState()
		right := ci.HoeffdingSerfling{}.NewState()
		runMin, runMax := sample[0], sample[0]
		for _, v := range sample[1:] {
			left.Update(math.Min(v, runMax))
			right.Update(math.Max(v, runMin))
			runMin = math.Min(runMin, v)
			runMax = math.Max(runMax, v)
		}
		wantLo := left.Lower(ci.Params{A: 0, B: maxV, N: 4999, Delta: 1e-6})
		wantHi := right.Upper(ci.Params{A: minV, B: 1000, N: 4999, Delta: 1e-6})
		// The trimmed sides clamp to the outer range; apply the same clamp.
		wantLo = math.Max(wantLo, p.A)
		wantHi = math.Min(wantHi, p.B)
		if math.Abs(gotLo-wantLo) > 1e-12 || math.Abs(gotHi-wantHi) > 1e-12 {
			t.Fatalf("trial %d: streaming (%v,%v) != reference (%v,%v)",
				trial, gotLo, gotHi, wantLo, wantHi)
		}
	}
}

func TestRangeTrimSingleSample(t *testing.T) {
	// With one sample both inner states are empty; bounds must stay
	// within the (substituted) ranges and not NaN.
	for _, b := range trimmedBounders() {
		s := b.NewState()
		s.Update(5)
		p := ci.Params{A: 0, B: 10, N: 100, Delta: 0.01}
		lo, hi := s.Lower(p), s.Upper(p)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			t.Errorf("%s: NaN bounds on single sample", b.Name())
		}
		if lo < p.A || hi > p.B {
			t.Errorf("%s: bounds [%v,%v] escape range", b.Name(), lo, hi)
		}
	}
}
