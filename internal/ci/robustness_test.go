package ci

import (
	"math"
	"testing"
)

// TestBoundIntervalNaNDegradesToTrivial: a NaN among the values makes
// every state's bounds NaN, and BoundInterval degrades them to the
// trivial interval [A, B] rather than passing them on.
func TestBoundIntervalNaNDegradesToTrivial(t *testing.T) {
	states := make(map[string]State)
	for _, b := range allBounders() {
		states[b.Name()] = b.NewState()
		if s, ok := Trim(b.NewState()); ok {
			states[b.Name()+"+rt"] = s
		}
	}
	p := Params{A: -2, B: 7, N: 1000, Delta: 0.05}
	for name, s := range states {
		for i := 0; i < 100; i++ {
			s.Update(1)
		}
		s.Update(math.NaN())
		if lo, hi := s.Lower(p), s.Upper(p); !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Fatalf("%s: bounds [%v,%v] after a NaN value, want NaN on both sides", name, lo, hi)
		}
		iv := BoundInterval(s, p)
		if iv.Lo != -2 || iv.Hi != 7 {
			t.Errorf("%s: NaN bounds not degraded to trivial: [%v,%v]", name, iv.Lo, iv.Hi)
		}
		if math.IsNaN(iv.Width()) {
			t.Errorf("%s: width is NaN", name)
		}
	}
}
