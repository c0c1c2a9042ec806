package stats

import "math"

// Clamp returns x limited to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Log1Over returns log(1/δ), guarding δ ≤ 0 and δ ≥ 1 so that bounders
// produce no NaNs: δ ≤ 0 returns +Inf, which widens a bound to the
// trivial interval, and δ ≥ 1 returns 0, a zero half-width: the
// interval shrinks onto the point estimate.
func Log1Over(delta float64) float64 {
	if delta <= 0 {
		return math.Inf(1)
	}
	if delta >= 1 {
		return 0
	}
	return -math.Log(delta)
}

// LogKOver returns log(k/δ) with the same guards as Log1Over.
func LogKOver(k, delta float64) float64 {
	if delta <= 0 {
		return math.Inf(1)
	}
	v := math.Log(k) - math.Log(delta)
	if v < 0 {
		return 0
	}
	return v
}

// SamplingFraction returns the without-replacement correction
// 1 − (m−1)/N used by the Serfling-style inequalities, clamped to [0,1].
// N ≤ 0 means "unknown / effectively infinite" and yields 1 (the
// with-replacement bound, which is always valid).
func SamplingFraction(m, n int) float64 {
	if n <= 0 {
		return 1
	}
	f := 1 - float64(m-1)/float64(n)
	return Clamp(f, 0, 1)
}

// BernsteinRho returns the ρ(m,N) factor from the empirical
// Bernstein–Serfling inequality (Bardenet & Maillard 2015):
// ρ = 1−(m−1)/N when m ≤ N/2, otherwise (1−m/N)(1+1/m).
// N ≤ 0 (unknown) yields 1.
func BernsteinRho(m, n int) float64 {
	if n <= 0 {
		return 1
	}
	fm, fn := float64(m), float64(n)
	var rho float64
	if fm <= fn/2 {
		rho = 1 - (fm-1)/fn
	} else {
		rho = (1 - fm/fn) * (1 + 1/fm)
	}
	return Clamp(rho, 0, 1)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n),
// or 0 for fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(len(xs))
}
