package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLog1Over(t *testing.T) {
	if got := Log1Over(math.Exp(-3)); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Log1Over(e^-3) = %v, want 3", got)
	}
	if got := Log1Over(0); !math.IsInf(got, 1) {
		t.Errorf("Log1Over(0) = %v, want +Inf", got)
	}
	if got := Log1Over(-1); !math.IsInf(got, 1) {
		t.Errorf("Log1Over(-1) = %v, want +Inf", got)
	}
	if got := Log1Over(1); got != 0 {
		t.Errorf("Log1Over(1) = %v, want 0", got)
	}
	if got := Log1Over(2); got != 0 {
		t.Errorf("Log1Over(2) = %v, want 0 (clamped)", got)
	}
}

func TestLogKOver(t *testing.T) {
	if got := LogKOver(5, 1e-15); !almostEqual(got, math.Log(5e15), 1e-12) {
		t.Errorf("LogKOver(5,1e-15) = %v, want %v", got, math.Log(5e15))
	}
	if got := LogKOver(2, 0); !math.IsInf(got, 1) {
		t.Errorf("LogKOver(2,0) = %v, want +Inf", got)
	}
	if got := LogKOver(2, 4); got != 0 {
		t.Errorf("LogKOver(2,4) = %v, want 0 (clamped)", got)
	}
}

func TestSamplingFraction(t *testing.T) {
	if got := SamplingFraction(1, 100); got != 1 {
		t.Errorf("m=1: %v, want 1", got)
	}
	if got := SamplingFraction(100, 100); !almostEqual(got, 0.01, 1e-12) {
		t.Errorf("m=N: %v, want 0.01", got)
	}
	if got := SamplingFraction(101, 100); got != 0 {
		t.Errorf("m>N clamps: %v, want 0", got)
	}
	if got := SamplingFraction(50, 0); got != 1 {
		t.Errorf("unknown N: %v, want 1", got)
	}
}

func TestBernsteinRho(t *testing.T) {
	// m ≤ N/2 branch
	if got := BernsteinRho(10, 100); !almostEqual(got, 1-9.0/100, 1e-12) {
		t.Errorf("rho(10,100) = %v", got)
	}
	// m > N/2 branch
	want := (1 - 80.0/100) * (1 + 1.0/80)
	if got := BernsteinRho(80, 100); !almostEqual(got, want, 1e-12) {
		t.Errorf("rho(80,100) = %v, want %v", got, want)
	}
	if got := BernsteinRho(5, 0); got != 1 {
		t.Errorf("rho unknown N = %v, want 1", got)
	}
	// rho is always in [0,1]
	f := func(m, n uint16) bool {
		r := BernsteinRho(int(m)+1, int(n))
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance(single) != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Errorf("Variance = %v", Variance(xs))
	}
}
