package exec

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastframe/internal/ci"
)

func TestSelectivityEpsilon(t *testing.T) {
	// Hand check: r=200, R=10000, δ=0.01:
	// ε = sqrt(log(200)·(1−199/10000)/400)
	want := math.Sqrt(math.Log(200) * (1 - 199.0/10000) / 400)
	if got := selectivityEpsilon(200, 10000, 0.01); math.Abs(got-want) > 1e-12 {
		t.Errorf("epsilon = %v, want %v", got, want)
	}
	if got := selectivityEpsilon(0, 100, 0.01); got != 1 {
		t.Errorf("r=0 epsilon = %v, want 1", got)
	}
}

func TestCountIntervalClamps(t *testing.T) {
	// Tiny r: the statistical bound is vacuous, but the deterministic
	// clamps still apply: at least mv matches, at most R−(r−mv).
	iv := countInterval(10, 1000, 4, 0.5)
	if iv.Lo < 4 {
		t.Errorf("Lo = %v below observed matches", iv.Lo)
	}
	if iv.Hi > 1000-6 {
		t.Errorf("Hi = %v above deterministic cap", iv.Hi)
	}
	// Zero coverage: trivial interval.
	iv = countInterval(0, 1000, 0, 0.5)
	if iv.Lo != 0 || iv.Hi != 1000 {
		t.Errorf("zero-coverage interval [%v,%v]", iv.Lo, iv.Hi)
	}
	// Full coverage: collapses to the exact count.
	iv = countInterval(1000, 1000, 123, 1e-12)
	if iv.Lo != 123 || iv.Hi != 123 {
		t.Errorf("full-coverage interval [%v,%v], want [123,123]", iv.Lo, iv.Hi)
	}
}

func TestCountIntervalCoverage(t *testing.T) {
	// Simulate: dataset of R rows with true selectivity σ; cover prefixes
	// of a random permutation and check the CI always contains N.
	rng := rand.New(rand.NewPCG(4, 2))
	const bigR = 20000
	misses := 0
	for trial := 0; trial < 40; trial++ {
		member := make([]bool, bigR)
		n := 0
		sigma := 0.05 + 0.4*rng.Float64()
		for i := range member {
			if rng.Float64() < sigma {
				member[i] = true
				n++
			}
		}
		perm := rng.Perm(bigR)
		mv := 0
		for r := 1; r <= bigR; r++ {
			if member[perm[r-1]] {
				mv++
			}
			if r%1000 == 0 {
				iv := countInterval(r, bigR, mv, 0.01)
				if float64(n) < iv.Lo || float64(n) > iv.Hi {
					misses++
					break
				}
			}
		}
	}
	if misses > 0 {
		t.Errorf("count interval missed the true count in %d/40 trials", misses)
	}
}

func TestCountUpper(t *testing.T) {
	// N⁺ must upper-bound the true count w.h.p. and respect the
	// deterministic cap.
	if got := countUpper(0, 500, 0, 0.01); got != 500 {
		t.Errorf("zero-coverage countUpper = %d, want R", got)
	}
	up := countUpper(100, 10000, 10, 1e-6)
	if up < 10 {
		t.Errorf("countUpper %d below observed matches", up)
	}
	if up > 10000-90 {
		t.Errorf("countUpper %d above deterministic cap", up)
	}
	// Full coverage: exactly mv.
	if got := countUpper(10000, 10000, 42, 1e-6); got != 42 {
		t.Errorf("full coverage countUpper = %d, want 42", got)
	}
	// Monotone in delta: smaller delta → larger N⁺.
	loose := countUpper(100, 10000, 10, 1e-2)
	tight := countUpper(100, 10000, 10, 1e-12)
	if tight < loose {
		t.Errorf("countUpper not monotone in delta: %d < %d", tight, loose)
	}
	// Never below 1 so bounders can consume it.
	if got := countUpper(100, 100, 0, 0.5); got < 1 {
		t.Errorf("countUpper = %d, want >= 1", got)
	}

	// Production scale: a 50 000-row view of a 1 M-row scramble, at
	// δ = 1e−16. At its mean rate (5 %) the view must be covered. So must
	// it at 9 700 of 200 000, 3.4σ low: the view shows that few with
	// probability 2.8e−4 ≫ δ, and N⁺ is monotone in mv, so an N⁺ below
	// 50 000 there would miss the view that often.
	const bigR, view, delta = 1_000_000, 50_000, 1e-16
	for _, c := range []struct{ r, mv int }{{199_999, 9_999}, {200_000, 10_000}, {300_000, 15_000}, {200_000, 9_700}} {
		if got := countUpper(c.r, bigR, c.mv, delta); got < view {
			t.Errorf("countUpper(r=%d, R=%d, mv=%d, δ=%g) = %d, below the %d-row view", c.r, bigR, c.mv, delta, got, view)
		}
	}

	// Any scale: R log-uniform up to 1e9, δ log-uniform down to 1e−30.
	// N⁺ lies between what was seen and the deterministic cap.
	rng := rand.New(rand.NewPCG(5, 17))
	for i := 0; i < 20_000; i++ {
		bigR := int(math.Exp(rng.Float64() * math.Log(1e9)))
		r := rng.IntN(bigR + 1)
		mv := rng.IntN(r + 1)
		delta := math.Pow(10, -30*rng.Float64())
		up := countUpper(r, bigR, mv, delta)
		if up < mv || up < 1 || up > max(bigR-(r-mv), 1) {
			t.Fatalf("countUpper(r=%d, R=%d, mv=%d, δ=%g) = %d, want in [max(mv, 1), max(R−(r−mv), 1)]", r, bigR, mv, delta, up)
		}
	}
}

func TestSumIntervalCorners(t *testing.T) {
	count := ci.Interval{Lo: 10, Hi: 20, Estimate: 15}
	avg := ci.Interval{Lo: 2, Hi: 3, Estimate: 2.5}
	iv := sumInterval(count, avg)
	if iv.Lo != 20 || iv.Hi != 60 {
		t.Errorf("positive case [%v,%v], want [20,60]", iv.Lo, iv.Hi)
	}
	if iv.Estimate != 37.5 {
		t.Errorf("Estimate = %v", iv.Estimate)
	}

	// Negative mean: the paper's c_ℓ·g_ℓ formula would give an invalid
	// interval; corners keep it correct.
	avgNeg := ci.Interval{Lo: -3, Hi: -2, Estimate: -2.5}
	iv = sumInterval(count, avgNeg)
	if iv.Lo != -60 || iv.Hi != -20 {
		t.Errorf("negative case [%v,%v], want [-60,-20]", iv.Lo, iv.Hi)
	}

	// Straddling zero.
	avgMix := ci.Interval{Lo: -1, Hi: 2, Estimate: 0.5}
	iv = sumInterval(count, avgMix)
	if iv.Lo != -20 || iv.Hi != 40 {
		t.Errorf("straddle case [%v,%v], want [-20,40]", iv.Lo, iv.Hi)
	}
}

func TestSumIntervalEnclosesTruth(t *testing.T) {
	// Property: if count CI contains N and avg CI contains µ, the sum CI
	// contains N·µ.
	rng := rand.New(rand.NewPCG(8, 1))
	for i := 0; i < 1000; i++ {
		n := float64(rng.IntN(1000) + 1)
		mu := rng.NormFloat64() * 50
		count := ci.Interval{Lo: n - rng.Float64()*10, Hi: n + rng.Float64()*10, Estimate: n}
		avg := ci.Interval{Lo: mu - rng.Float64()*5, Hi: mu + rng.Float64()*5, Estimate: mu}
		iv := sumInterval(count, avg)
		if truth := n * mu; truth < iv.Lo-1e-9 || truth > iv.Hi+1e-9 {
			t.Fatalf("sum interval [%v,%v] misses %v (N=%v, mu=%v)", iv.Lo, iv.Hi, truth, n, mu)
		}
	}
}
