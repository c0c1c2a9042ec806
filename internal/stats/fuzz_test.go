package stats

import (
	"math"
	"testing"
)

// FuzzWelfordMatchesTwoPass feeds arbitrary byte-derived float streams
// through Welford and cross-checks the two-pass formulas.
func FuzzWelfordMatchesTwoPass(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := make([]float64, 0, len(raw))
		var w Welford
		for _, b := range raw {
			v := (float64(b) - 128) * 3.7
			xs = append(xs, v)
			w.Add(v)
		}
		if len(xs) == 0 {
			return
		}
		if m := Mean(xs); math.Abs(w.Mean()-m) > 1e-9*math.Max(1, math.Abs(m)) {
			t.Fatalf("mean %v vs %v", w.Mean(), m)
		}
		if v := Variance(xs); math.Abs(w.Variance()-v) > 1e-6*math.Max(1, v) {
			t.Fatalf("variance %v vs %v", w.Variance(), v)
		}
		if w.Variance() < 0 {
			t.Fatal("negative variance")
		}
	})
}
