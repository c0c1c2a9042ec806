package core

import (
	"math/rand/v2"
	"testing"

	"fastframe/internal/ci"
)

func TestGeometricDecayTelescopes(t *testing.T) {
	for _, eta := range []float64{0.3, 0.7, 0.95} {
		s := GeometricDecay(eta)
		const delta = 1e-6
		sum := 0.0
		for k := 1; k <= 5000; k++ {
			sum += s(delta, k)
		}
		if sum > delta {
			t.Errorf("eta=%v: budget %v exceeds delta", eta, sum)
		}
		if sum < 0.999*delta {
			t.Errorf("eta=%v: budget %v far below delta", eta, sum)
		}
		if s(delta, 0) != s(delta, 1) {
			t.Errorf("eta=%v: k<1 should clamp", eta)
		}
	}
}

func TestGeometricDecayPanicsOnBadEta(t *testing.T) {
	for _, eta := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eta=%v accepted", eta)
				}
			}()
			GeometricDecay(eta)
		}()
	}
}

func TestSetScheduleAfterRoundPanics(t *testing.T) {
	o := NewOptStop(ci.HoeffdingSerfling{}, ci.Params{A: 0, B: 1, N: 100, Delta: 0.1}, 10)
	o.CloseRound()
	defer func() {
		if recover() == nil {
			t.Error("SetSchedule after a round did not panic")
		}
	}()
	o.SetSchedule(GeometricDecay(0.5))
}

// TestScheduleAblation verifies the two schedules' crossover: the
// front-loaded geometric schedule spends more budget on early rounds
// (tighter intervals at round 1), while its per-round log(1/δ_k) grows
// linearly in k, so the k⁻² schedule overtakes it in later rounds —
// the tradeoff that makes k⁻² the right default for long scans.
func TestScheduleAblation(t *testing.T) {
	widthAtRound := func(schedule DecaySchedule, rounds int) float64 {
		rng := rand.New(rand.NewPCG(5, 5))
		o := NewOptStop(ci.EmpiricalBernsteinSerfling{},
			ci.Params{A: 0, B: 100, N: 1_000_000, Delta: 1e-9}, 500)
		if schedule != nil {
			o.SetSchedule(schedule)
		}
		for o.Round() < rampLooks+rounds { // the schedule decays the full rounds' budgets only
			o.Observe(50 + rng.NormFloat64())
		}
		return o.Interval().Width()
	}
	// Round 1: geometric(0.5) allocates δ/2 vs k⁻²'s (6/π²)δ ≈ 0.61δ —
	// nearly equal; geometric(0.9) allocates only 0.1δ — looser. Probe
	// the crossover at a round count where the linear-in-k log term has
	// clearly overtaken: by round 60, 0.69·k ≈ 41 ≫ 2·ln k ≈ 8.2.
	geoEarly := widthAtRound(GeometricDecay(0.5), 1)
	k2Early := widthAtRound(nil, 1)
	if geoEarly > k2Early*1.15 {
		t.Errorf("geometric(0.5) much looser than k^-2 at round 1: %v vs %v", geoEarly, k2Early)
	}
	geoLate := widthAtRound(GeometricDecay(0.5), 60)
	k2Late := widthAtRound(nil, 60)
	if k2Late >= geoLate {
		t.Errorf("k^-2 did not overtake geometric by round 60: %v vs %v", k2Late, geoLate)
	}
}

// TestGeometricScheduleCoverage: optional-stopping validity is
// schedule-independent; verify coverage under the geometric schedule.
func TestGeometricScheduleCoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	misses := 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		n := 20_000
		data := make([]float64, n)
		truth := 0.0
		for i := range data {
			data[i] = rng.Float64()
			truth += data[i]
		}
		truth /= float64(n)
		o := NewOptStop(ci.EmpiricalBernsteinSerfling{}, ci.Params{A: 0, B: 1, N: n, Delta: 0.05}, 200)
		o.SetSchedule(GeometricDecay(0.8))
		for _, idx := range rng.Perm(n)[:8000] {
			o.Observe(data[idx])
		}
		if !o.Interval().Contains(truth) {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d geometric-schedule runs missed the truth", misses, trials)
	}
}

// TestZeroBudgetLook: a schedule may hand a look a zero share — the
// geometric tail at η = 0.054 underflows at round 251, the draw that made
// TestQuickGeometricDecayBudget fail one run in ten — and such a look
// yields the trivial interval for every bounder: the running
// intersection stays where the last funded look left it, finite, ordered
// and around the mean.
func TestZeroBudgetLook(t *testing.T) {
	const eta = 0.05 + 0.9/255
	if d := GeometricDecay(eta)(1e-6, 250); d <= 0 {
		t.Fatalf("round 250 has share %v, want a positive one", d)
	}
	if d := GeometricDecay(eta)(1e-6, 251); d != 0 {
		t.Fatalf("round 251 has share %v, want the underflow to zero", d)
	}
	bounders := []ci.Bounder{
		ci.HoeffdingSerfling{}, ci.EmpiricalBernsteinSerfling{}, ci.AndersonDKW{},
		RangeTrim{Inner: ci.HoeffdingSerfling{}}, RangeTrim{Inner: ci.EmpiricalBernsteinSerfling{}},
	}
	for _, b := range bounders {
		p := ci.Params{A: 0, B: 10, N: 100_000, Delta: 1e-6}
		state := b.NewState()
		for i := 0; i < 500; i++ {
			state.Update(float64(i % 7))
		}
		p.Delta = 0
		if iv := ci.BoundInterval(state, p); iv.Lo != p.A || iv.Hi != p.B {
			t.Errorf("%T at δ = 0: [%v, %v], want the trivial [%v, %v]", b, iv.Lo, iv.Hi, p.A, p.B)
		}

		p.Delta = 1e-6
		o := NewOptStop(b, p, 16) // a full round every 16 samples
		o.SetSchedule(GeometricDecay(eta))
		var funded ci.Interval
		for i := 0; o.Round() < 300; i++ {
			if o.Observe(float64(i%7)) && o.Round() == 4+250 { // four ramp looks come first
				funded = o.Interval()
			}
		}
		if got := o.Interval(); got.Lo != funded.Lo || got.Hi != funded.Hi {
			t.Errorf("%T: zero-budget looks moved the interval from [%v, %v] to [%v, %v]", b, funded.Lo, funded.Hi, got.Lo, got.Hi)
		}
		if !(funded.Lo <= 3 && 3 <= funded.Hi && funded.Lo >= p.A && funded.Hi <= p.B) {
			t.Errorf("%T: interval [%v, %v] is not a finite one around the mean 3", b, funded.Lo, funded.Hi)
		}
	}
}
