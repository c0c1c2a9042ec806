package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastframe/internal/ci"
)

func TestRoundDelta(t *testing.T) {
	const delta = 1e-6
	// Budget must telescope: Σ (6/π²)δ/k² = δ. Check a long partial sum
	// stays below δ and approaches it.
	sum := 0.0
	for k := 1; k <= 2_000_000; k++ {
		sum += RoundDelta(delta, k)
	}
	if sum > delta {
		t.Fatalf("partial budget %v exceeds delta %v", sum, delta)
	}
	if sum < 0.999999*delta {
		t.Errorf("partial budget %v not approaching delta %v", sum, delta)
	}
	if RoundDelta(delta, 0) != RoundDelta(delta, 1) {
		t.Error("k<1 should clamp to round 1")
	}
}

func TestOptStopTightensMonotonically(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	o := NewOptStop(RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
		ci.Params{A: 0, B: 1, N: 1_000_000, Delta: 1e-9}, 500)
	prev := math.Inf(1)
	for i := 0; i < 20_000; i++ {
		if o.Observe(0.3 + 0.1*rng.Float64()) {
			w := o.Interval().Width()
			if w > prev+1e-12 {
				t.Fatalf("interval widened at round %d: %v > %v", o.looks.Closed(), w, prev)
			}
			prev = w
		}
	}
	if o.looks.Closed() != 4+40 { // the ramp's four looks, then 20000/500 full rounds
		t.Errorf("%d looks closed, want 44", o.looks.Closed())
	}
	if o.Samples() != 20_000 {
		t.Errorf("Samples = %d, want 20000", o.Samples())
	}
	if prev > 0.2 {
		t.Errorf("final width %v suspiciously loose", prev)
	}
}

func TestOptStopCoverageUnderOptionalStopping(t *testing.T) {
	// Adversarial optional stopping: stop the moment the interval first
	// excludes some threshold near the mean, then verify the final
	// interval still contains the true mean. Any anytime-validity bug
	// (e.g. not decaying δ) shows up as misses here.
	rng := rand.New(rand.NewPCG(5, 6))
	misses := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		n := 50_000
		data := make([]float64, n)
		truth := 0.0
		for i := range data {
			data[i] = rng.Float64()
			truth += data[i]
		}
		truth /= float64(n)
		perm := rng.Perm(n)
		o := NewOptStop(RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
			ci.Params{A: 0, B: 1, N: n, Delta: 0.05}, 200)
		threshold := truth + 0.01
		for _, idx := range perm {
			if o.Observe(data[idx]) {
				iv := o.Interval()
				if !iv.Contains(threshold) { // data-dependent stop
					break
				}
			}
		}
		if !o.Interval().Contains(truth) {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d runs missed the true mean under optional stopping", misses, trials)
	}
}

func TestOptStopCloseRoundOnPartialBatch(t *testing.T) {
	o := NewOptStop(ci.HoeffdingSerfling{}, ci.Params{A: 0, B: 1, N: 1000, Delta: 1e-6}, 1000)
	for i := 0; i < 42; i++ { // the first look is due at 1000/16 = 62
		o.Observe(0.5)
	}
	if o.looks.Closed() != 0 {
		t.Fatalf("%d looks closed before the forced close", o.looks.Closed())
	}
	o.CloseRound()
	if o.looks.Closed() != 1 {
		t.Fatalf("%d looks closed after the forced close", o.looks.Closed())
	}
	iv := o.Interval()
	if iv.Width() >= 1 {
		t.Errorf("interval did not tighten after forced close: width %v", iv.Width())
	}
}

func TestOptStopTrivialBeforeFirstRound(t *testing.T) {
	o := NewOptStop(ci.HoeffdingSerfling{}, ci.Params{A: -2, B: 3, N: 1000, Delta: 1e-6}, 100)
	iv := o.Interval()
	if iv.Lo != -2 || iv.Hi != 3 {
		t.Errorf("pre-round interval [%v,%v], want [-2,3]", iv.Lo, iv.Hi)
	}
}

// TestZeroBudgetLook: a look closed on a zero share of δ (one that
// underflows) yields the trivial interval for every bounder —
// ci.BoundInterval turns their ±Inf or NaN at δ = 0 into [A, B] — so it
// leaves the running intersection where it was.
func TestZeroBudgetLook(t *testing.T) {
	bounders := []ci.Bounder{
		ci.HoeffdingSerfling{}, ci.EmpiricalBernsteinSerfling{}, ci.AndersonDKW{},
		RangeTrim{Inner: ci.HoeffdingSerfling{}}, RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
	}
	for _, b := range bounders {
		p := ci.Params{A: 0, B: 10, N: 100_000, Delta: 0}
		state := b.NewState()
		for i := 0; i < 500; i++ {
			state.Update(float64(i % 7))
		}
		if iv := ci.BoundInterval(state, p); iv.Lo != p.A || iv.Hi != p.B {
			t.Errorf("%T at δ = 0: [%v, %v], want the trivial [%v, %v]", b, iv.Lo, iv.Hi, p.A, p.B)
		}
	}
}

func TestOptStopDefaultBatchSize(t *testing.T) {
	o := NewOptStop(ci.HoeffdingSerfling{}, ci.Params{A: 0, B: 1, N: 100, Delta: 0.1}, 0)
	if o.looks.roundRows != DefaultBatchSize {
		t.Errorf("round size = %d, want %d", o.looks.roundRows, DefaultBatchSize)
	}
}
