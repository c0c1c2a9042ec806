package ci

import (
	"testing"
	"testing/quick"
)

// quickSample converts fuzzer bytes into a bounded sample in [0, 1].
func quickSample(raw []byte) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, b := range raw {
		xs = append(xs, float64(b)/255)
	}
	return xs
}

// TestQuickWidthMonotoneInDelta: tighter guarantees can never shrink the
// interval, for arbitrary samples.
func TestQuickWidthMonotoneInDelta(t *testing.T) {
	for _, b := range allBounders() {
		b := b
		f := func(raw []byte) bool {
			if len(raw) < 2 {
				return true
			}
			s := b.NewState()
			for _, v := range quickSample(raw) {
				s.Update(v)
			}
			prev := -1.0
			for _, d := range []float64{1e-2, 1e-5, 1e-9, 1e-15} {
				w := BoundInterval(s, Params{A: 0, B: 1, N: 10 * len(raw), Delta: d}).Width()
				if w < prev-1e-12 {
					return false
				}
				prev = w
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
}

// TestQuickDatasetSizeMonotone: substituting a larger N never tightens
// the bounds (§3.3's safety property), for arbitrary samples.
func TestQuickDatasetSizeMonotone(t *testing.T) {
	for _, b := range allBounders() {
		b := b
		f := func(raw []byte, extra uint16) bool {
			if len(raw) == 0 {
				return true
			}
			s := b.NewState()
			for _, v := range quickSample(raw) {
				s.Update(v)
			}
			n1 := len(raw) + 1
			n2 := n1 + int(extra) + 1
			p1 := Params{A: 0, B: 1, N: n1, Delta: 1e-6}
			p2 := Params{A: 0, B: 1, N: n2, Delta: 1e-6}
			return s.Lower(p2) <= s.Lower(p1)+1e-12 && s.Upper(p2) >= s.Upper(p1)-1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
}
